package hadoop

import (
	"fmt"
	"testing"

	"hetmr/internal/cluster"
	"hetmr/internal/sim"
)

// killSplits sizes killJob.
const killSplits = 12

// killJob is the determinism scenario: 12 splits of 20–53 M samples (so
// several are mid-flight on every tracker whenever a node dies) at 1 µs
// per sample.
func killJob() *Job {
	job := &Job{Name: "kill", MapperFor: StaticMapperFor(
		FixedMapper{Label: "m", PerSample: sim.Microsecond})}
	for i := 0; i < killSplits; i++ {
		job.Splits = append(job.Splits, Split{Index: i, Samples: int64(20+3*i) * 1_000_000})
	}
	return job
}

// TestKillNodeDeterministic: a seeded job that loses a tracker must
// replay bit-identically. The lost tracker's tasks are re-queued in the
// Board's scan order (task index), not in whatever order a Go map
// yields them — which used to give the same seeded job two makespans.
// It also holds the attempt numbers of one (split, phase) distinct: the
// attempt that died with the node still counts as launched.
func TestKillNodeDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackerExpiry = 20 * sim.Second
	run := func() string {
		res, err := tryRunJob(3, cfg, killJob(), func(p *sim.Proc, rt *Runtime) {
			p.Sleep(15 * sim.Second)
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
		// One kill: every re-run reports, and must be numbered after the
		// attempt that died unreported (0), never 0 again.
		seen := map[[2]int]bool{}
		reruns := 0
		for _, ts := range res.Tasks {
			k := [2]int{ts.Split, ts.Attempt}
			if seen[k] {
				t.Fatalf("split %d has two attempts numbered %d", ts.Split, ts.Attempt)
			}
			seen[k] = true
			if ts.Attempt > 0 {
				reruns++
			}
		}
		if want := res.Attempts - killSplits; reruns == 0 || reruns != want {
			t.Fatalf("%d attempts numbered above 0, want %d (one per re-run)", reruns, want)
		}
		return fmt.Sprintf("%d %+v", res.Finished, res.Tasks)
	}
	first := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\n%s", i, got, first)
		}
	}
}

// killSchedule is one seeded scenario of TestKillSchedulesKeepInvariants.
type killSchedule struct {
	workers, reduces int
	speculative      bool
	samples          []int64 // per split
	home             []int   // per split: preferred worker, -1 none
	kills            []nodeKill
}

// nodeKill stops one worker's tracker at a virtual time.
type nodeKill struct {
	victim int
	at     sim.Time
}

func randomKillSchedule(seed uint64) killSchedule {
	rng := sim.NewRNG(seed)
	ks := killSchedule{
		workers:     2 + rng.Intn(5),
		reduces:     rng.Intn(3),
		speculative: rng.Intn(2) == 1,
	}
	for i, n := 0, 4+rng.Intn(21); i < n; i++ {
		ks.samples = append(ks.samples, int64(1+rng.Intn(30))*1_000_000)
		ks.home = append(ks.home, rng.Intn(ks.workers+1)-1)
	}
	// Victims come from all but the last worker, so one always survives.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		ks.kills = append(ks.kills, nodeKill{rng.Intn(ks.workers - 1), rng.Jitter(90 * sim.Second)})
	}
	return ks
}

// run plays the schedule on a fresh cluster and returns the result with
// the job's internal state (for the Board cross-checks).
func (ks killSchedule) run(t *testing.T, seed uint64) (*JobResult, *jobState) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrackerExpiry = 20 * sim.Second
	cfg.Speculative = ks.speculative
	// Worker 0 is a 5x straggler, so speculation has something to do.
	job := &Job{Name: "sched", Reduces: ks.reduces, MapperFor: func(n *cluster.Node) Mapper {
		if n.Name == cluster.WorkerName(0) {
			return FixedMapper{Label: "slow", PerSample: 5 * sim.Microsecond}
		}
		return FixedMapper{Label: "fast", PerSample: sim.Microsecond}
	}}
	for i, s := range ks.samples {
		split := Split{Index: i, Samples: s}
		if ks.home[i] >= 0 {
			split.PreferredHosts = []string{cluster.WorkerName(ks.home[i])}
		}
		job.Splits = append(job.Splits, split)
	}
	eng := sim.NewEngine(seed)
	clus, err := cluster.New(eng, ks.workers)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(eng, clus, cfg)
	handle, err := rt.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	var res *JobResult
	var js *jobState
	eng.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(cfg.JobSetup + 1) // the job is active from JobSetup on
		js = rt.JT.active
		res = handle.Wait(p)
		rt.Shutdown()
	})
	for _, k := range ks.kills {
		eng.Spawn("chaos", func(p *sim.Proc) {
			p.Sleep(k.at)
			if err := rt.KillNode(cluster.WorkerName(k.victim)); err != nil {
				panic(err)
			}
		})
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if res == nil || js == nil {
		t.Fatalf("seed %d: job never finished (%+v)", seed, ks)
	}
	return res, js
}

// TestKillSchedulesKeepInvariants is the simulated-JobTracker sibling of
// sched's TestBoardRandomSchedulesKeepInvariants: under random seeded
// kill schedules, with speculation on or off, the job finishes with
// exactly one winner per task, the launch count agrees with the Boards',
// no dead tracker wins after it died, and the run replays bit-identically.
func TestKillSchedulesKeepInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		ks := randomKillSchedule(seed)
		res, js := ks.run(t, seed)

		mapWins, reduceWins := make([]int, len(ks.samples)), make([]int, ks.reduces)
		for _, ts := range res.Tasks {
			if !ts.Won {
				continue
			}
			if ts.IsReduce {
				reduceWins[ts.Split]++
			} else {
				mapWins[ts.Split]++
			}
			for _, k := range ks.kills {
				if ts.Tracker == cluster.WorkerName(k.victim) && ts.End > k.at {
					t.Errorf("seed %d: %s won %+v after dying at %v", seed, ts.Tracker, ts, k.at)
				}
			}
		}
		for i, n := range append(mapWins, reduceWins...) {
			if n != 1 {
				t.Errorf("seed %d: task %d of %d maps + %d reduces has %d winners", seed, i, len(mapWins), len(reduceWins), n)
			}
		}

		boards, launched := js.maps.Attempts(), 0
		if js.reduces != nil {
			boards += js.reduces.Attempts()
		}
		for _, n := range append(js.mapLaunches, js.reduceLaunches...) {
			launched += n
		}
		if res.Attempts != boards || launched != boards || len(res.Tasks) > boards {
			t.Errorf("seed %d: result says %d attempts, boards %d, launch counters %d, %d reported",
				seed, res.Attempts, boards, launched, len(res.Tasks))
		}

		again, _ := ks.run(t, seed)
		if a, b := fmt.Sprintf("%+v", *res), fmt.Sprintf("%+v", *again); a != b {
			t.Errorf("seed %d: replay differs:\n%s\n%s", seed, a, b)
		}
	}
}
