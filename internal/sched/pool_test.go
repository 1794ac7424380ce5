package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fleet builds n equal workers with one slot each.
func fleet(n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = Worker{ID: fmt.Sprintf("w%d", i)}
	}
	return ws
}

// unhomed builds n tasks with no placement preference.
func unhomed(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{Home: -1}
	}
	return ts
}

func TestRunCommitsEveryTaskOnce(t *testing.T) {
	const n = 100
	var commits [n]atomic.Int64
	var wrong atomic.Int64
	results, stats, err := Run(fleet(4), unhomed(n), func(w, task int) (any, error) {
		return task * 2, nil
	}, Options{OnCommit: func(task int, r any) {
		commits[task].Add(1)
		if r.(int) != task*2 {
			wrong.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range commits {
		if c := commits[i].Load(); c != 1 {
			t.Errorf("OnCommit ran %d times for task %d, want 1", c, i)
		}
	}
	if wrong.Load() != 0 {
		t.Errorf("%d tasks committed a result that is not their own", wrong.Load())
	}
	// The hook owns the results: Run keeps none of them.
	for i, r := range results {
		if r != nil {
			t.Errorf("results[%d] = %v, want nil once OnCommit consumed it", i, r)
		}
	}
	total := 0
	for _, w := range stats.Workers {
		total += w.Committed
	}
	if total != n || stats.Tasks != n {
		t.Errorf("committed %d / tasks %d, want %d", total, stats.Tasks, n)
	}
	if stats.Attempts < n {
		t.Errorf("attempts %d < tasks %d", stats.Attempts, n)
	}
}

func TestRunHomedTasksAndStealing(t *testing.T) {
	// All tasks homed on worker 0; with 4 workers the others must pull
	// its tasks too, or the run serializes.
	const n = 64
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Home: 0}
	}
	_, stats, err := Run(fleet(4), tasks, func(w, task int) (any, error) {
		time.Sleep(200 * time.Microsecond)
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	away := 0
	for _, w := range stats.Workers[1:] {
		away += w.Committed
	}
	if away == 0 || stats.Workers[0].Committed+away != n {
		t.Errorf("non-home workers committed %d of %d tasks (home worker %d); want some, and every task once",
			away, n, stats.Workers[0].Committed)
	}
}

func TestRunFailureReRunsElsewhere(t *testing.T) {
	// Worker 0 fails every attempt; the job must still finish, with
	// every failed task re-run on a healthy worker.
	boom := errors.New("bad node")
	results, stats, err := Run(fleet(3), unhomed(30), func(w, task int) (any, error) {
		if w == 0 {
			return nil, boom
		}
		time.Sleep(200 * time.Microsecond) // keep healthy workers busy long enough for worker 0 to participate
		return task, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.(int) != i {
			t.Fatalf("results[%d] = %v after re-runs", i, r)
		}
	}
	if stats.Workers[0].Failed == 0 {
		t.Error("failing worker recorded no failures")
	}
	if stats.Workers[0].Committed != 0 {
		t.Error("failing worker committed tasks")
	}
}

func TestRunMaxAttemptsAborts(t *testing.T) {
	boom := errors.New("always broken")
	calls := atomic.Int64{}
	_, _, err := Run(fleet(2), unhomed(4), func(w, task int) (any, error) {
		calls.Add(1)
		return nil, boom
	}, Options{MaxAttempts: 3})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

func TestRunSpeculationBeatsStraggler(t *testing.T) {
	// Mirrors internal/hadoop's TestSpeculativeExecution on the live
	// pool: worker 0 takes ~150ms per task, the others microseconds.
	// Without speculation the job waits for worker 0's in-flight task;
	// with it, a duplicate on an idle fast worker wins and the run
	// returns while the straggler is still asleep.
	// Fast workers take ~2ms per task so the straggler is guaranteed to
	// have pulled (and be sleeping on) a task before the queue drains.
	const delay = 150 * time.Millisecond
	run := func(speculative bool) (time.Duration, *Stats) {
		exec := func(w, task int) (any, error) {
			if w == 0 {
				time.Sleep(delay)
			} else {
				time.Sleep(2 * time.Millisecond)
			}
			return task, nil
		}
		start := time.Now()
		results, stats, err := Run(fleet(3), unhomed(24), exec,
			Options{Speculative: speculative})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.(int) != i {
				t.Fatalf("speculative=%v: results[%d] = %v", speculative, i, r)
			}
		}
		return time.Since(start), stats
	}
	slow, _ := run(false)
	fast, stats := run(true)
	speculated := 0
	for _, w := range stats.Workers {
		speculated += w.Speculated
	}
	if speculated == 0 {
		t.Error("no speculative attempt launched")
	}
	if fast >= delay {
		t.Errorf("speculative run took %v, want < straggler delay %v", fast, delay)
	}
	if fast >= slow {
		t.Errorf("speculation (%v) did not beat baseline (%v)", fast, slow)
	}
}

func TestRunFasterWorkerCommitsMore(t *testing.T) {
	// No hint anywhere: the worker that finishes sooner asks the board
	// sooner, so it ends up with most of the tasks.
	_, stats, err := Run(fleet(2), unhomed(44), func(w, task int) (any, error) {
		if w == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers[1].Committed <= stats.Workers[0].Committed {
		t.Errorf("fast worker committed %d <= slow worker's %d",
			stats.Workers[1].Committed, stats.Workers[0].Committed)
	}
}

// TestRunScalesWithTaskCount is the guard on grant cost: a grant must
// not walk the settled part of the board, or a 16 k-block live job
// spends its time in Assign.
func TestRunScalesWithTaskCount(t *testing.T) {
	start := time.Now()
	_, stats, err := Run(fleet(4), unhomed(20000), func(w, task int) (any, error) {
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= time.Second {
		t.Errorf("20000 no-op tasks took %v, want < 1s", el)
	}
	if stats.Attempts != 20000 {
		t.Errorf("attempts = %d, want one per task", stats.Attempts)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(nil, unhomed(1), nil, Options{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, _, err := Run([]Worker{{ID: "a"}, {ID: "a"}}, unhomed(1), nil, Options{}); err == nil {
		t.Error("duplicate worker ID accepted")
	}
	if _, _, err := Run([]Worker{{Slots: -2}}, unhomed(1), nil, Options{}); err == nil {
		t.Error("negative slots accepted")
	}
	// Zero tasks completes immediately.
	results, stats, err := Run(fleet(2), nil, nil, Options{})
	if err != nil || len(results) != 0 || stats.Tasks != 0 {
		t.Errorf("empty run: results=%v stats=%+v err=%v", results, stats, err)
	}
}

func TestStatsCounts(t *testing.T) {
	_, stats, err := Run(fleet(2), unhomed(10), func(w, task int) (any, error) {
		return nil, nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range stats.Counts() {
		sum += n
	}
	if sum != 10 {
		t.Errorf("Counts sums to %d, want 10", sum)
	}
}
