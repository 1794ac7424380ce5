package hadoop

import (
	"strings"
	"testing"

	"hetmr/internal/cluster"
	"hetmr/internal/sim"
)

// testHarness runs a job to completion on a fresh simulated cluster
// and returns the result.
func runJob(t *testing.T, nWorkers int, cfg Config, job *Job, opts ...cluster.Option) *JobResult {
	t.Helper()
	res, err := tryRunJob(nWorkers, cfg, job, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tryRunJob is runJob without the testing dependency; mid is invoked
// (if non-nil) in a separate process for fault injection.
func tryRunJob(nWorkers int, cfg Config, job *Job,
	mid func(p *sim.Proc, rt *Runtime), opts ...cluster.Option) (*JobResult, error) {
	return tryRunJobLinger(nWorkers, cfg, job, mid, 0, opts...)
}

// tryRunJobLinger keeps the cluster alive for `linger` of virtual time
// after job completion, so straggler attempts can still report.
func tryRunJobLinger(nWorkers int, cfg Config, job *Job,
	mid func(p *sim.Proc, rt *Runtime), linger sim.Time, opts ...cluster.Option) (*JobResult, error) {
	eng := sim.NewEngine(2009)
	clus, err := cluster.New(eng, nWorkers, opts...)
	if err != nil {
		return nil, err
	}
	rt := NewRuntime(eng, clus, cfg)
	var result *JobResult
	handle, err := rt.Submit(job)
	if err != nil {
		return nil, err
	}
	eng.Spawn("driver", func(p *sim.Proc) {
		result = handle.Wait(p)
		p.Sleep(linger)
		rt.Shutdown()
	})
	if mid != nil {
		eng.Spawn("chaos", func(p *sim.Proc) { mid(p, rt) })
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	return result, nil
}

// simpleDataJob builds a job of nSplits splits, each with recs records
// of recBytes hosted on the matching worker (locality-friendly).
func simpleDataJob(name string, nSplits, recs int, recBytes int64, m Mapper) *Job {
	job := &Job{Name: name, MapperFor: StaticMapperFor(m)}
	for i := 0; i < nSplits; i++ {
		var records []Record
		host := cluster.WorkerName(i % 4)
		for r := 0; r < recs; r++ {
			records = append(records, Record{Bytes: recBytes, Hosts: []string{host}})
		}
		job.Splits = append(job.Splits, Split{
			Index:          i,
			Records:        records,
			PreferredHosts: []string{host},
		})
	}
	return job
}

func TestJobValidate(t *testing.T) {
	m := FixedMapper{Label: "x"}
	cases := []struct {
		name string
		job  *Job
	}{
		{"no name", &Job{MapperFor: StaticMapperFor(m), Splits: []Split{{Samples: 1}}}},
		{"no splits", &Job{Name: "j", MapperFor: StaticMapperFor(m)}},
		{"no mapper", &Job{Name: "j", Splits: []Split{{Samples: 1}}}},
		{"bad index", &Job{Name: "j", MapperFor: StaticMapperFor(m),
			Splits: []Split{{Index: 5, Samples: 1}}}},
		{"empty split", &Job{Name: "j", MapperFor: StaticMapperFor(m),
			Splits: []Split{{Index: 0}}}},
	}
	for _, c := range cases {
		if err := c.job.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	good := &Job{Name: "j", MapperFor: StaticMapperFor(m),
		Splits: []Split{{Index: 0, Samples: 100}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good job rejected: %v", err)
	}
}

func TestSampleJobCompletes(t *testing.T) {
	cfg := DefaultConfig()
	job := &Job{Name: "pi-test", MapperFor: StaticMapperFor(
		FixedMapper{Label: "fix", PerSample: sim.Microsecond})}
	for i := 0; i < 8; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: 1_000_000})
	}
	res := runJob(t, 4, cfg, job)
	if res == nil {
		t.Fatal("no result")
	}
	// 8 tasks x 1s compute on 4 nodes x 2 slots: one wave. Makespan
	// must cover setup + launch + compute + cleanup but stay sane.
	d := res.Duration()
	min := cfg.JobSetup + cfg.TaskLaunch + sim.Second
	if d < min {
		t.Errorf("duration %v below floor %v", d, min)
	}
	if d > 60*sim.Second {
		t.Errorf("duration %v absurdly high for one wave", d)
	}
	if len(res.Tasks) != 8 || res.Attempts != 8 {
		t.Errorf("tasks=%d attempts=%d, want 8/8", len(res.Tasks), res.Attempts)
	}
	for _, ts := range res.Tasks {
		if !ts.Won {
			t.Errorf("task %d attempt %d lost without speculation", ts.Split, ts.Attempt)
		}
		if ts.End <= ts.Start {
			t.Errorf("task %d has non-positive duration", ts.Split)
		}
	}
}

func TestDataJobLocality(t *testing.T) {
	cfg := DefaultConfig()
	job := simpleDataJob("enc", 8, 4, 1<<20, FixedMapper{Label: "fix", PerRecord: 10 * sim.Millisecond, OutPerByte: 1})
	res := runJob(t, 4, cfg, job)
	if res.LocalReads == 0 {
		t.Fatal("locality scheduler produced zero local reads")
	}
	// With one split per node pattern and locality preference, remote
	// reads should be the exception.
	if res.RemoteReads > res.LocalReads {
		t.Errorf("remote reads (%d) exceed local (%d): locality scheduling broken",
			res.RemoteReads, res.LocalReads)
	}
	if res.InputBytes != 8*4*(1<<20) {
		t.Errorf("InputBytes = %d", res.InputBytes)
	}
}

func TestMoreTasksThanSlots(t *testing.T) {
	// 12 one-second tasks on 1 node x 2 slots: at least 6 waves, and
	// one task per heartbeat throttles ramp-up.
	cfg := DefaultConfig()
	job := &Job{Name: "waves", MapperFor: StaticMapperFor(
		FixedMapper{Label: "fix", PerSample: sim.Microsecond})}
	for i := 0; i < 12; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: 1_000_000})
	}
	res := runJob(t, 1, cfg, job)
	if len(res.Tasks) != 12 {
		t.Fatalf("completed %d tasks", len(res.Tasks))
	}
	// Serial floor: 12 tasks, 2 slots, ~1s each + launch 1.5s -> at
	// least 6 x 2.5s of pure work.
	if res.Duration() < 15*sim.Second {
		t.Errorf("duration %v too small for 6 waves", res.Duration())
	}
}

func TestHeartbeatAssignmentThrottle(t *testing.T) {
	// One task per heartbeat: with 10 instant tasks on one tracker,
	// assignments span at least 9 heartbeat intervals.
	cfg := DefaultConfig()
	job := &Job{Name: "throttle", MapperFor: StaticMapperFor(
		FixedMapper{Label: "fix", PerSample: 0})}
	for i := 0; i < 10; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: 1})
	}
	res := runJob(t, 1, cfg, job)
	minSpan := sim.Time(9) * cfg.HeartbeatInterval
	span := res.Finished - res.Started
	if span < minSpan {
		t.Errorf("10 tasks finished in %v; one-per-heartbeat should need >= %v", span, minSpan)
	}
}

func TestEmptyVsComputeMapperOrdering(t *testing.T) {
	mk := func(m Mapper) *JobResult {
		job := simpleDataJob("j", 4, 4, 8<<20, m)
		return runJob(t, 4, DefaultConfig(), job)
	}
	empty := mk(EmptyMapper{})
	java := mk(JavaAESMapper{})
	cell := mk(CellAESMapper{})
	if !(empty.Duration() <= cell.Duration() && cell.Duration() <= java.Duration()) {
		t.Errorf("expected empty <= cell <= java, got %v / %v / %v",
			empty.Duration(), cell.Duration(), java.Duration())
	}
	// The paper's data-intensive conclusion: communication dominates,
	// so java is NOT dramatically slower than empty.
	ratio := java.Duration().Seconds() / empty.Duration().Seconds()
	if ratio > 2.0 {
		t.Errorf("java/empty ratio %.2f: record delivery should dominate", ratio)
	}
}

func TestTrackerFailureReexecution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackerExpiry = 20 * sim.Second
	// Long tasks so the kill lands mid-flight.
	job := &Job{Name: "failover", MapperFor: StaticMapperFor(
		FixedMapper{Label: "slow", PerSample: sim.Microsecond})}
	for i := 0; i < 6; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: 30_000_000}) // 30s each
	}
	res, err := tryRunJob(3, cfg, job, func(p *sim.Proc, rt *Runtime) {
		p.Sleep(15 * sim.Second) // tasks are running by now
		if err := rt.KillNode(cluster.WorkerName(0)); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("job never finished after node failure")
	}
	// All 6 splits completed despite losing a node.
	won := map[int]bool{}
	for _, ts := range res.Tasks {
		if ts.Won {
			won[ts.Split] = true
		}
	}
	if len(won) != 6 {
		t.Errorf("only %d splits completed", len(won))
	}
	// Re-execution happened: more attempts than splits.
	if res.Attempts <= 6 {
		t.Errorf("attempts = %d, expected re-executions after node kill", res.Attempts)
	}
	// No winning task may be credited to the dead node after expiry.
	for _, ts := range res.Tasks {
		if ts.Won && ts.Tracker == cluster.WorkerName(0) && ts.End > 35*sim.Second {
			t.Errorf("dead node won a task at %v", ts.End)
		}
	}
}

func TestSpeculativeExecution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speculative = true
	// One straggler node: make node000's mapper 10x slower by keying
	// compute time off the node name.
	slow := FixedMapper{Label: "slow", PerSample: 10 * sim.Microsecond}
	fast := FixedMapper{Label: "fast", PerSample: sim.Microsecond}
	job := &Job{Name: "spec", MapperFor: func(n *cluster.Node) Mapper {
		if n.Name == cluster.WorkerName(0) {
			return slow
		}
		return fast
	}}
	for i := 0; i < 8; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: 10_000_000})
	}
	res, err := tryRunJobLinger(4, cfg, job, nil, 300*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts <= 8 {
		t.Errorf("attempts = %d; expected speculative duplicates", res.Attempts)
	}
	// Some attempt must have lost the race.
	lost := 0
	for _, ts := range res.Tasks {
		if !ts.Won {
			lost++
		}
	}
	if lost == 0 {
		t.Error("no losing attempts recorded despite speculation")
	}

	// And speculation should beat the non-speculative run.
	cfgOff := DefaultConfig()
	jobOff := &Job{Name: "spec-off", MapperFor: job.MapperFor}
	jobOff.Splits = append([]Split(nil), job.Splits...)
	resOff := runJob(t, 4, cfgOff, jobOff)
	if res.Duration() >= resOff.Duration() {
		t.Errorf("speculation (%v) did not beat baseline (%v)", res.Duration(), resOff.Duration())
	}
}

func TestSequentialJobs(t *testing.T) {
	eng := sim.NewEngine(1)
	clus, err := cluster.New(eng, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(eng, clus, DefaultConfig())
	mk := func(name string) *Job {
		j := &Job{Name: name, MapperFor: StaticMapperFor(FixedMapper{Label: "f", PerSample: sim.Microsecond})}
		j.Splits = []Split{{Index: 0, Samples: 1000}}
		return j
	}
	h1, err := rt.Submit(mk("first"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt.Submit(mk("second"))
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 *JobResult
	eng.Spawn("driver", func(p *sim.Proc) {
		r1 = h1.Wait(p)
		r2 = h2.Wait(p)
		rt.Shutdown()
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r1 == nil || r2 == nil {
		t.Fatal("jobs did not finish")
	}
	if r2.Finished <= r1.Finished {
		t.Error("second job finished before first (jobs must run sequentially)")
	}
	if h1.Result() == nil || h2.Result() == nil {
		t.Error("Result() nil after completion")
	}
}

func TestSubmitInvalidJob(t *testing.T) {
	eng := sim.NewEngine(1)
	clus, _ := cluster.New(eng, 1)
	rt := NewRuntime(eng, clus, DefaultConfig())
	if _, err := rt.Submit(&Job{}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := rt.KillNode("nope"); err == nil {
		t.Error("KillNode on unknown node should fail")
	}
	rt.Shutdown()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAccounted(t *testing.T) {
	job := simpleDataJob("e", 4, 2, 1<<20, EmptyMapper{})
	res := runJob(t, 4, DefaultConfig(), job)
	if res.EnergyJoules <= 0 {
		t.Error("energy not accounted")
	}
	// Sanity: energy at least idle power x duration x nodes.
	min := res.Duration().Seconds() * 4 * 200
	if res.EnergyJoules < min {
		t.Errorf("energy %.0f J below idle floor %.0f J", res.EnergyJoules, min)
	}
}

func TestMapperNames(t *testing.T) {
	for _, m := range []Mapper{EmptyMapper{}, JavaAESMapper{}, CellAESMapper{},
		JavaPiMapper{}, CellPiMapper{}} {
		if m.Name() == "" {
			t.Error("mapper with empty name")
		}
	}
	// Cell AES must beat Java AES per record at 64MB, but Java Pi
	// must beat Cell Pi at tiny sample counts (SPU init overhead).
	if (CellAESMapper{}).RecordTime(64<<20) >= (JavaAESMapper{}).RecordTime(64<<20) {
		t.Error("Cell AES should beat Java AES on 64MB records")
	}
	if (CellPiMapper{}).SampleTime(100) <= (JavaPiMapper{}).SampleTime(100) {
		t.Error("Java Pi should beat Cell Pi at 100 samples (init overhead)")
	}
	if (CellPiMapper{}).SampleTime(1e9) >= (JavaPiMapper{}).SampleTime(1e9) {
		t.Error("Cell Pi should beat Java Pi at 1e9 samples")
	}
}

func TestAcceleratedMapperFallback(t *testing.T) {
	factory := AcceleratedMapperFor(CellAESMapper{}, JavaAESMapper{})
	accel := &cluster.Node{Name: "a", Accelerated: true}
	plain := &cluster.Node{Name: "b", Accelerated: false}
	if !strings.Contains(factory(accel).Name(), "cell") {
		t.Error("accelerated node should get cell mapper")
	}
	if !strings.Contains(factory(plain).Name(), "java") {
		t.Error("plain node should get java mapper")
	}
}
