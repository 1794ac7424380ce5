package netmr

import (
	"bytes"
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// The event-driven control plane's edges: a completion triggers its own
// heartbeat, a held Status call answers on the job's terminal
// transition, and the JobTracker forgets old jobs.

// gauge tracks how many "gauge" kernel map calls run at once, and the
// most that ever did.
var gauge struct{ now, peak atomic.Int64 }

func init() {
	// A map that takes a moment and records its concurrency — the
	// slot-accounting probe: a tracker that advertised a slot it had not
	// freed would run more of these at once than it has slots.
	RegisterKernel("gauge", MapKernel{
		Map: func(Task, []byte) ([]byte, error) {
			n := gauge.now.Add(1)
			for {
				peak := gauge.peak.Load()
				if n <= peak || gauge.peak.CompareAndSwap(peak, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			gauge.now.Add(-1)
			return nil, nil
		},
		Reduce: func([][]byte) ([]byte, error) { return nil, nil },
	})
}

// startMasters boots a NameNode and a JobTracker with no workers.
func startMasters(t *testing.T) (*NameNode, *JobTracker) {
	t.Helper()
	nn, err := StartNameNode("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nn.Close() })
	jt, err := StartJobTracker("127.0.0.1:0", nn.Addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jt.Close() })
	return nn, jt
}

// heldStatus issues one Status call with the given hold and reports
// how long it was parked.
func heldStatus(jtc *rpcnet.Client, id int64, hold time.Duration) (StatusReply, time.Duration, error) {
	var st StatusReply
	start := time.Now()
	err := jtc.CallTimeout("Status", StatusArgs{JobID: id, Hold: hold}, &st, 10*time.Second)
	return st, time.Since(start), err
}

// parkedStatusCalls counts the goroutines inside the JobTracker's
// Status handler right now — the parked long-polls.
func parkedStatusCalls() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("(*JobTracker).handleStatus("))
}

func TestCompletionBeatBringsNextWave(t *testing.T) {
	// One tracker, two slots, six tasks: three waves. On the tick alone
	// every wave (and the final report) costs a 300 ms heartbeat; with a
	// beat on each completion only the first grant waits for a tick.
	const tick = 300 * time.Millisecond
	nn, jt := startMasters(t)
	tt, err := StartTaskTracker("solo", jt.Addr(), "", 0, Config{Slots: 2, Heartbeat: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	start := time.Now()
	_, err = submitAndWait(client, JobSpec{Name: "waves", Kernel: "pi", Samples: 6000, NumTasks: 6}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 2*tick {
		t.Errorf("3-wave job took %v on a %v tick — waves are waiting for the timer", elapsed, tick)
	}
}

func TestReportFreesSlotWithResult(t *testing.T) {
	// 100 short tasks through 3 slots on a one-second tick: the job can
	// only finish quickly if every completion's own beat advertises the
	// slot it freed, and the tracker must never run more attempts than
	// it has slots. Run with -race -count=10: report, the slot release
	// and the wake poke all cross goroutines.
	const slots, tasks = 3, 100
	gauge.peak.Store(0)
	nn, jt := startMasters(t)
	tt, err := StartTaskTracker("solo", jt.Addr(), "", 0, Config{Slots: slots, Heartbeat: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	start := time.Now()
	st, err := func() (StatusReply, error) {
		id, err := client.Submit(JobSpec{Name: "slots", Kernel: "gauge", Samples: tasks, NumTasks: tasks})
		if err != nil {
			return StatusReply{}, err
		}
		return client.WaitStatus(id, 20*time.Second)
	}()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Errorf("%d tasks took %v on a 1s tick — slots are refilled by the timer", tasks, elapsed)
	}
	if st.Completed != tasks || st.Attempts != tasks {
		t.Errorf("completed %d with %d attempts, want %d and %d", st.Completed, st.Attempts, tasks, tasks)
	}
	if peak := gauge.peak.Load(); peak > slots {
		t.Errorf("peak concurrent attempts = %d on a %d-slot tracker", peak, slots)
	}
	tt.mu.Lock()
	running, queued := tt.running, len(tt.completed)
	tt.mu.Unlock()
	if running != 0 || queued != 0 {
		t.Errorf("after the job: running = %d, unreported = %d, want 0 and 0", running, queued)
	}
}

func TestHeldStatusReturnsOnCompletion(t *testing.T) {
	nn, jt := startMasters(t)
	tt, err := StartTaskTracker("slow", jt.Addr(), "", 0, Config{Slots: 1, Heartbeat: 10 * time.Millisecond,
		TaskDelays: []time.Duration{100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "held", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	jtc, err := rpcnet.Dial(jt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jtc.Close()
	hold := 5 * maxStatusHold // capped: the job must beat even the cap
	st, parked, err := heldStatus(jtc, id, hold)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Err != "" || len(st.Partials) != 1 {
		t.Fatalf("held Status returned %+v, want the finished job", st)
	}
	if parked >= maxStatusHold {
		t.Errorf("held Status returned after %v — on the hold, not on the job's completion", parked)
	}
	// A finished job answers a held call at once.
	if _, parked, err = heldStatus(jtc, id, hold); err != nil || parked >= maxStatusHold/2 {
		t.Errorf("held Status on a finished job: parked %v, err %v", parked, err)
	}
}

func TestHeldStatusReturnsOnKill(t *testing.T) {
	// No trackers: the job can never run, so only the kill can end it.
	nn, jt := startMasters(t)
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "doomed", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		st  StatusReply
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		st, err := client.WaitStatus(id, 10*time.Second)
		got <- outcome{st, err}
	}()
	waitFor(t, 5*time.Second, func() bool { return parkedStatusCalls() == 1 },
		"the wait never parked at the JobTracker")
	if err := client.Kill(id, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-got:
		if o.err == nil || !strings.Contains(o.err.Error(), "killed") {
			t.Errorf("wait on a killed job: err = %v, want the kill", o.err)
		}
		if !o.st.Done || o.st.Err == "" {
			t.Errorf("wait on a killed job: status %+v, want Done with Err", o.st)
		}
	case <-time.After(maxStatusHold / 2):
		t.Fatal("the kill did not wake the parked wait")
	}
}

func TestHeldStatusExpiresNotDone(t *testing.T) {
	nn, jt := startMasters(t)
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "idle", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	jtc, err := rpcnet.Dial(jt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jtc.Close()
	for _, tc := range []struct{ hold, atLeast, below time.Duration }{
		{50 * time.Millisecond, 50 * time.Millisecond, maxStatusHold / 2},
		{time.Hour, maxStatusHold, 3 * maxStatusHold}, // capped by the JobTracker
	} {
		st, parked, err := heldStatus(jtc, id, tc.hold)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done || st.Total != 1 {
			t.Errorf("hold %v: status %+v, want the not-done snapshot", tc.hold, st)
		}
		if parked < tc.atLeast || parked >= tc.below {
			t.Errorf("hold %v: parked %v, want [%v, %v)", tc.hold, parked, tc.atLeast, tc.below)
		}
	}
	// A held call on an unknown job fails at once instead of parking.
	if _, parked, err := heldStatus(jtc, id+1, time.Hour); err == nil || parked >= maxStatusHold/2 {
		t.Errorf("held Status on an unknown job: parked %v, err %v", parked, err)
	}
}

func TestJobTrackerCloseReleasesParkedStatus(t *testing.T) {
	// Close must not wait out the holds: parked handlers return on the
	// stop edge, so the server drains at once (and the package's
	// goroutine check sees none left behind).
	nn, jt := startMasters(t)
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "parked", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := client.WaitStatus(id, 10*time.Second)
			errs <- err
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return parkedStatusCalls() == waiters },
		"the waits never parked at the JobTracker")
	start := time.Now()
	jt.Close()
	if took := time.Since(start); took >= maxStatusHold/2 {
		t.Errorf("JobTracker.Close took %v with %d Status calls parked", took, waiters)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("wait on a closed JobTracker reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked wait outlived JobTracker.Close")
		}
	}
}

func TestManyWaitersOnOneClient(t *testing.T) {
	// More concurrent waits than the client's pool has handler slots at
	// the server (2 connections x 64): the surplus queues behind parked
	// calls, and the bounded hold guarantees they are all served.
	nn, jt := startMasters(t)
	tt, err := StartTaskTracker("slow", jt.Addr(), "", 0, Config{Slots: 1, Heartbeat: 10 * time.Millisecond,
		TaskDelays: []time.Duration{100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Stop()
	client, _ := NewClient(nn.Addr(), jt.Addr(), 1024)
	defer client.Close()
	id, err := client.Submit(JobSpec{Name: "crowd", Kernel: "pi", Samples: 1000, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 200
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, err := client.WaitStatus(id, 20*time.Second); err != nil || !st.Done {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d concurrent waits failed", n, waiters)
	}
}

func TestJobTrackerForgetsOldJobs(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1024, Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	// A streamed job that finishes first and stays unreleased: its
	// record guards outputs the client has not read, so it must survive
	// any number of later jobs.
	plain := bytes.Repeat([]byte("0123456789abcdef"), 256)
	if err := c.Client.WriteFile("/plain", plain, ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{Key: []byte("0123456789abcdef"), IV: make([]byte, 16), BlockBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := c.Client.Submit(JobSpec{
		Name: "enc", Kernel: "aes-ctr", Input: "/plain", Args: args,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.WaitStatus(streamed, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	const jobs = 200
	var first, last int64
	for i := 0; i < jobs; i++ {
		id, err := c.Client.Submit(JobSpec{Name: "tiny", Kernel: "pi", Samples: 100, NumTasks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitResult(c.Client, id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = id
		}
		last = id
	}
	c.JT.mu.Lock()
	kept := len(c.JT.jobs)
	finished := c.JT.jobs[last]
	c.JT.mu.Unlock()
	if kept > retainJobs+1 {
		t.Errorf("JobTracker holds %d records after %d jobs, want at most %d (+1 unreleased streamed)", kept, jobs, retainJobs)
	}
	if finished == nil || len(finished.result()) != 2 {
		t.Errorf("latest finished record = %+v, want its two partials kept for the client's fold", finished)
	}
	// The listing is the retained records in submission order — the
	// unreleased streamed job first, then the newest finished ones — at a
	// cost that does not grow with every ID ever issued: a service that
	// has handed out 2^40 IDs lists as promptly as a fresh one (walking
	// the ID space under jt.mu would stall this call, and every
	// heartbeat behind it, for hours).
	c.JT.mu.Lock()
	c.JT.nextJob += 1 << 40
	c.JT.mu.Unlock()
	list, err := c.Client.ListJobs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != kept || list[0].ID != streamed || list[len(list)-1].ID != last {
		t.Errorf("ListJobs: %d rows from %d to %d, want the %d retained, from the streamed job %d to the latest %d",
			len(list), list[0].ID, list[len(list)-1].ID, kept, streamed, last)
	}
	if !slices.IsSortedFunc(list, func(a, b JobInfo) int { return cmp.Compare(a.ID, b.ID) }) {
		t.Errorf("ListJobs after retirement is not in submission order: %v", list)
	}
	if _, err := c.Client.Status(first); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Status of a forgotten job: err = %v, want unknown job", err)
	}
	if err := c.Client.Kill(first, ""); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Kill of a forgotten job: err = %v, want unknown job", err)
	}
	if st, err := c.Client.Status(last); err != nil || !st.Done {
		t.Errorf("Status of the latest job: %+v, %v", st, err)
	}
	// The unreleased streamed job is still whole, and once read and
	// released it is forgotten like any other.
	var out bytes.Buffer
	if _, err := c.Client.WaitOutput(streamed, 10*time.Second, &out); err != nil || out.Len() != len(plain) {
		t.Fatalf("streamed output after %d later jobs: %d bytes, %v", jobs, out.Len(), err)
	}
	if _, err := submitAndWait(c.Client, JobSpec{Name: "tiny", Kernel: "pi", Samples: 100, NumTasks: 2}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Status(streamed); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Status of the released streamed job: err = %v, want unknown job", err)
	}
}
