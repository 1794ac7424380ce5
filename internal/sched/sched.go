// Package sched is the heterogeneity-aware dynamic scheduler shared by
// the functional runtimes and the simulator. It is Hadoop's shape: one
// task table that workers pull from. Board is that table — the only
// attempt state machine — and it has three drivers: the netmr
// JobTracker, whose trackers pull over heartbeats; Run, whose
// in-process worker slots (internal/core's live cluster) pull in a
// loop; and internal/hadoop's simulated JobTracker, which answers
// modelled heartbeats from it on the virtual clock. FairShare orders
// tenants at a master serving many boards. The paper's central claim —
// that a cluster mixing devices of very different speeds only pays off
// when the runtime load-balances across them — rests on three board
// mechanisms:
//
//   - pull grants, node-local first: a worker is handed the tasks whose
//     data it holds, then rack-local ones, then any pending task, so a
//     faster device simply asks more often and a slow one never
//     serializes the job tail;
//   - speculative execution: when idle capacity appears and nothing is
//     pending, the longest-running in-flight task is duplicated and the
//     first finished attempt wins (Hadoop's straggler defence);
//   - failure re-run: a task whose attempt reports an error, or whose
//     lease expires silently, is pending again for another worker;
//     MaxAttempts reported failures fail it for good.
//
// Task results must be deterministic functions of the task alone — the
// same bytes regardless of which worker runs an attempt — which is
// what makes first-finish-wins commits safe and keeps job results
// bit-identical with speculation on or off.
package sched

import "fmt"

// DefaultMaxAttempts is the per-task attempt cap (first launch plus
// failure re-runs plus speculative duplicates) when Options.MaxAttempts
// is zero. It matches Hadoop's mapred.map.max.attempts default.
const DefaultMaxAttempts = 4

// Worker describes one execution site of a Run.
type Worker struct {
	// ID names the worker at the board and in stats (e.g. the live node
	// name); IDs must be distinct. "" means "worker000", "worker001", …
	// by fleet index.
	ID string
	// Slots is how many tasks the worker runs concurrently (the
	// paper's map slots per node). 0 means 1.
	Slots int
}

// Task describes one unit of work for a Run.
type Task struct {
	// Home is the preferred worker index (data locality): that worker
	// is granted the task ahead of un-homed ones, and any other worker
	// takes it once it has no homed task of its own pending. -1 (or any
	// out-of-range value) means no preference.
	Home int
}

// Exec runs one attempt of task t on worker w and returns the task's
// result. It must be a pure function of the task: attempts of the same
// task may run concurrently on different workers and Run commits
// whichever finishes first.
type Exec func(w, t int) (any, error)

// Options configures a Board, and the Run driving one.
type Options struct {
	// Speculative enables duplicate execution of the slowest in-flight
	// task when a worker goes idle; the first finished attempt wins.
	Speculative bool
	// MaxAttempts caps attempts per task (0: DefaultMaxAttempts). The
	// board uses it to bound speculative duplicates and to declare a
	// task exhausted once MaxAttempts of its attempts have reported
	// errors with none still running (lease re-issue after silent
	// worker death never spends the failure budget, or jobs could
	// wedge); Run aborts on an exhausted task, the JobTracker fails the
	// job.
	MaxAttempts int
	// OnCommit, when set, is called by Run exactly once per task with
	// the winning attempt's result, concurrently across tasks, before
	// Run returns. Use it to fold results into shared structures (e.g. the
	// live runner's word tables) without double-insertion under
	// speculation. The hook owns the results: Run then returns a slice
	// of nils, so it never retains every task's payload.
	OnCommit func(t int, result any)
	// Affinity names the device kind this board's tasks prefer (e.g.
	// netmr's "cell" for accelerated map tasks, "host" for reduce
	// merges; "" means no preference). The board records it for the
	// master's device-affinity grant pass: serve boards whose Affinity
	// matches the heartbeating worker's device first, then sweep every
	// board with Assign — preference orders grants, it never idles a
	// worker whose kind mismatches.
	Affinity string
}

// maxAttempts resolves the attempt cap.
func (o Options) maxAttempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return DefaultMaxAttempts
}

// WorkerStats is one worker's view of a finished Run.
type WorkerStats struct {
	ID string
	// Committed counts tasks whose winning attempt ran here (the
	// board's winner credit).
	Committed int
	// Attempts counts every attempt launched here.
	Attempts int
	// Speculated counts speculative duplicate attempts launched here.
	Speculated int
	// Failed counts attempts that returned an error.
	Failed int
}

// Stats summarizes one Run.
type Stats struct {
	// Workers holds per-worker counters, indexed like the input fleet.
	Workers []WorkerStats
	// Tasks is the task count; Attempts every launched attempt
	// (including speculative duplicates and failure re-runs).
	Tasks    int
	Attempts int
}

// Counts returns committed tasks per worker ID — the "who did the
// work" imbalance view.
func (s *Stats) Counts() map[string]int {
	out := make(map[string]int, len(s.Workers))
	for _, w := range s.Workers {
		out[w.ID] = w.Committed
	}
	return out
}

// normalizeWorkers validates a fleet and resolves zero fields.
func normalizeWorkers(workers []Worker) ([]Worker, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("sched: need at least one worker")
	}
	out := make([]Worker, len(workers))
	seen := make(map[string]bool, len(workers))
	for i, w := range workers {
		if w.Slots < 0 {
			return nil, fmt.Errorf("sched: worker %d has negative slots %d", i, w.Slots)
		}
		if w.Slots == 0 {
			w.Slots = 1
		}
		if w.ID == "" {
			w.ID = fmt.Sprintf("worker%03d", i)
		}
		if seen[w.ID] {
			return nil, fmt.Errorf("sched: worker %d repeats ID %q; the board tells workers apart by ID", i, w.ID)
		}
		seen[w.ID] = true
		out[i] = w
	}
	return out, nil
}
