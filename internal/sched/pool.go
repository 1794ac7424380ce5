package sched

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Run executes tasks over an in-process worker fleet by driving one
// Board: every worker slot is a goroutine that pulls an attempt
// (Assign, then Speculate when nothing is pending), runs it and reports
// the outcome (Complete or Fail), blocking while nothing is grantable.
// Attempts, the failure budget, the straggler choice and the winner
// credit are the board's; Run adds only what an in-process fleet needs
// on top — the goroutines, the result slice and the commit hook. It
// returns the per-task results (indexed like tasks; nils when
// Options.OnCommit consumed them) and the run's per-worker stats.
//
// Placement: a worker is granted the tasks homed on it first
// (LocalityNode), then any pending task, so a faster worker simply asks
// more often and no worker idles while work is pending.
//
// Completion: the first finished attempt of a task wins; its result is
// committed (and Options.OnCommit invoked) exactly once. Losing
// duplicate attempts may still be executing when Run returns — they
// are pure by the Exec contract and their results are discarded.
//
// Failure: a task whose attempt returns an error is pending again at
// once, for any worker but the one that just failed it
// (LocalityExcluded; a one-worker fleet retries its own failures),
// until Options.MaxAttempts of its attempts have failed, at which point
// Run aborts and returns the last error. In-process attempts cannot die
// silently, so leases never expire.
func Run(workers []Worker, tasks []Task, exec Exec, opts Options) ([]any, *Stats, error) {
	fleet, err := normalizeWorkers(workers)
	if err != nil {
		return nil, nil, err
	}
	d := &driver{
		fleet:    fleet,
		tasks:    tasks,
		exec:     exec,
		opts:     opts,
		results:  make([]any, len(tasks)),
		failedOn: make(map[int]int),
		stats:    make([]WorkerStats, len(fleet)),
	}
	for i, w := range fleet {
		d.stats[i].ID = w.ID
	}
	if len(tasks) == 0 {
		return d.results, &Stats{Workers: d.stats}, nil
	}
	for _, t := range tasks {
		d.homed = d.homed || (t.Home >= 0 && t.Home < len(fleet))
	}
	if d.board, err = NewBoard(len(tasks), time.Duration(math.MaxInt64), opts); err != nil {
		return nil, nil, err
	}
	d.cond = sync.NewCond(&d.mu)
	for w := range fleet {
		for s := 0; s < fleet[w].Slots; s++ {
			go d.slot(w)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.committed < len(tasks) && d.failErr == nil {
		d.cond.Wait()
	}
	// Copied under the lock: losing duplicates still draining after Run
	// returns keep counting into d.stats.
	stats := &Stats{
		Workers:  append([]WorkerStats(nil), d.stats...),
		Tasks:    len(tasks),
		Attempts: d.board.Attempts(),
	}
	counts := d.board.Counts()
	for i := range stats.Workers {
		stats.Workers[i].Committed = counts[stats.Workers[i].ID]
	}
	if d.failErr != nil {
		return nil, stats, d.failErr
	}
	return d.results, stats, nil
}

// driver is one Run: the fleet's slot goroutines around a Board.
type driver struct {
	fleet []Worker
	tasks []Task
	exec  Exec
	opts  Options
	board *Board
	homed bool // some task names a home worker
	// results[t] is written by the one attempt that wins Complete(t) and
	// read by Run after it has seen that attempt's committed++.
	results []any

	mu        sync.Mutex
	cond      *sync.Cond
	committed int // tasks whose winning attempt has run OnCommit
	// failedOn maps a task to the worker whose attempt of it failed last
	// — the source of that worker's LocalityExcluded grade.
	failedOn map[int]int
	failErr  error
	stats    []WorkerStats
}

// slot is one worker execution slot: pull an attempt, run it, report
// the outcome, repeat.
func (d *driver) slot(w int) {
	for {
		t, ok := d.next(w)
		if !ok {
			return
		}
		res, err := d.exec(w, t)
		if err != nil {
			d.fail(w, t, err)
			continue
		}
		if !d.board.Complete(t, d.fleet[w].ID) {
			continue // a duplicate lost the race; its result is discarded
		}
		if d.opts.OnCommit != nil {
			d.opts.OnCommit(t, res)
		} else {
			d.results[t] = res
		}
		d.mu.Lock()
		d.committed++
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// next blocks until the board grants worker w an attempt, or the run is
// finished or aborted.
func (d *driver) next(w int) (int, bool) {
	id := d.fleet[w].ID
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.failErr != nil || d.board.Done() {
			return 0, false
		}
		now := time.Now()
		if g := d.board.Assign(id, 1, now, d.grade(w)); len(g) == 1 {
			d.stats[w].Attempts++
			return g[0], true
		}
		if g := d.board.Speculate(id, 1, now); len(g) == 1 {
			d.stats[w].Attempts++
			d.stats[w].Speculated++
			return g[0], true
		}
		d.cond.Wait()
	}
}

// grade is worker w's view of the pending tasks for one Assign: its own
// failures excluded, its homed tasks first. With no homed task and no
// failure there is nothing to tell apart, and nil lets Assign grant the
// first pending task without grading the rest. Callers hold d.mu.
func (d *driver) grade(w int) func(t int) Locality {
	if !d.homed && len(d.failedOn) == 0 {
		return nil
	}
	return func(t int) Locality {
		if f, ok := d.failedOn[t]; ok && f == w {
			return LocalityExcluded
		}
		if d.tasks[t].Home == w {
			return LocalityNode
		}
		return LocalityRemote
	}
}

// fail reports worker w's failed attempt of task t; the run aborts when
// the board declares the task's failure budget spent.
func (d *driver) fail(w, t int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats[w].Failed++
	if _, exhausted := d.board.Fail(t, d.fleet[w].ID); exhausted && d.failErr == nil {
		d.failErr = fmt.Errorf("sched: task %d failed after %d attempts: %w", t, d.opts.maxAttempts(), err)
	}
	if len(d.fleet) > 1 {
		d.failedOn[t] = w
	}
	d.cond.Broadcast()
}
