package sched

import (
	"fmt"
	"sync"
	"time"
)

// Board is the scheduler's task table, and the only attempt state
// machine in the tree: workers pull from it — trackers over heartbeats
// at the netmr JobTracker, slot goroutines in Run, simulated trackers
// at internal/hadoop's JobTracker on virtual time — and every launch,
// live lease, reported failure, straggler pick and winner credit is
// recorded here and nowhere else. Workers hold a lease on every
// attempt; an attempt whose lease expires is presumed dead (tracker
// failure) and its task becomes assignable again. With speculation
// enabled, a worker whose slots cannot be filled with pending tasks is
// handed a duplicate of the longest-running in-flight task — first
// finished attempt wins.
//
// The board is deterministic: callers pass the current time into
// Assign, so tests can drive it with a manual clock and the simulator
// with its virtual one.
type Board struct {
	mu    sync.Mutex
	lease time.Duration
	opts  Options
	max   int
	tasks []boardTask
	order []int // pending-scan order (nil: index order)
	ident []int // cached identity scan, built lazily
	// low is the scan low-water mark: no task before position low of
	// the scan order is pending, so a grant on a mostly-settled board
	// does not walk the settled prefix again. Anything that can make an
	// earlier task pending (expiry, Fail, Release, Reopen, SetOrder)
	// resets it.
	low int
	// oldest is a lower bound on the start of every live attempt (zero:
	// none launched since the last sweep); expire sweeps the tasks only
	// once a lease counted from it could have run out.
	oldest   time.Time
	doneN    int
	counts   map[string]int
	attempts int
}

// boardTask is one task's state at the board.
type boardTask struct {
	done     bool
	attempts int    // every launch: first issue, re-issues, speculation
	failures int    // attempts that reported an error
	winner   string // worker credited with the winning attempt
	live     []boardAttempt
}

// boardAttempt is one leased execution.
type boardAttempt struct {
	worker  string
	started time.Time
}

// NewBoard builds a board for n tasks with the given lease duration.
func NewBoard(n int, lease time.Duration, opts Options) (*Board, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: board needs at least one task, got %d", n)
	}
	if lease <= 0 {
		return nil, fmt.Errorf("sched: board needs a positive lease, got %v", lease)
	}
	return &Board{
		lease:  lease,
		opts:   opts,
		max:    opts.maxAttempts(),
		tasks:  make([]boardTask, n),
		counts: make(map[string]int),
	}, nil
}

// Locality grades a task for the worker asking: whether its data sits
// on the worker's own node or elsewhere — or that this worker may not
// have it at all.
type Locality int

// Locality levels, ordered so a higher value is nearer.
const (
	// LocalityExcluded keeps a pending task away from this worker: Assign
	// never grants it, another worker's Assign will. It is a caller-side
	// eligibility rule, not board state — Run returns it for the worker
	// whose attempt of the task failed last (so a broken worker cannot
	// pull its own failure back and burn the task's whole failure
	// budget); the JobTracker's closures never return it.
	LocalityExcluded Locality = iota - 1
	// LocalityRemote is data on another node (or locality-indifferent
	// tasks).
	LocalityRemote
	// LocalityNode is data on the worker's own node.
	LocalityNode
)

// Assign grants worker up to max pending task attempts at time now:
// expired leases are reclaimed first, then pending tasks in descending
// locality order — node-local first, then remote (nil closure: every
// task is remote, one flat pass). A task the closure
// grades LocalityExcluded stays pending. A task index repeats across
// calls only after a lease expiry. Speculative duplicates are a
// separate step (Speculate), so a master serving several boards can
// exhaust every board's pending work before duplicating anyone's
// stragglers.
func (b *Board) Assign(worker string, max int, now time.Time, locality func(task int) Locality) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expire(now)
	order := b.scanOrder()
	for b.low < len(order) && !b.pending(order[b.low]) {
		b.low++
	}
	tiers := []Locality{LocalityNode, LocalityRemote}
	if locality == nil {
		tiers = tiers[1:]
	}
	var out []int
	for _, want := range tiers {
		for _, i := range order[b.low:] {
			if len(out) >= max {
				return out
			}
			if b.pending(i) && (locality == nil || locality(i) == want) {
				out = b.grant(i, worker, now, out)
			}
		}
	}
	return out
}

// pending reports whether task i is neither done nor in flight. Callers
// hold b.mu.
func (b *Board) pending(i int) bool {
	t := &b.tasks[i]
	return !t.done && len(t.live) == 0
}

// scanOrder returns the pending-scan order: the SetOrder permutation
// when one is installed, the cached identity otherwise. Callers hold
// b.mu.
func (b *Board) scanOrder() []int {
	if b.order != nil {
		return b.order
	}
	if b.ident == nil {
		b.ident = make([]int, len(b.tasks))
		for i := range b.ident {
			b.ident[i] = i
		}
	}
	return b.ident
}

// SetOrder installs the order Assign scans pending tasks in — the
// range-aware hook: a master that knows per-partition sizes hands out
// the heaviest reduce ranges first (LPT), so a skewed partition starts
// early instead of serializing the tail. An order that is not a
// permutation of the task indices is rejected and the board keeps its
// current scan; nil restores index order.
func (b *Board) SetOrder(order []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if order == nil {
		b.order, b.low = nil, 0
		return
	}
	if len(order) != len(b.tasks) {
		return
	}
	seen := make([]bool, len(b.tasks))
	for _, i := range order {
		if i < 0 || i >= len(b.tasks) || seen[i] {
			return
		}
		seen[i] = true
	}
	b.order, b.low = append([]int(nil), order...), 0
}

// Speculate grants worker up to max speculative duplicates of the
// longest-running in-flight tasks at time now — the idle-capacity
// step, meant to run only after Assign found no pending work anywhere.
// It returns nothing unless the board was built with speculation on.
func (b *Board) Speculate(worker string, max int, now time.Time) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.opts.Speculative {
		return nil
	}
	b.expire(now)
	var out []int
	for len(out) < max {
		i, ok := b.straggler(worker)
		if !ok {
			break
		}
		out = b.grant(i, worker, now, out)
	}
	return out
}

// grant records an attempt launch. Callers hold b.mu.
func (b *Board) grant(i int, worker string, now time.Time, out []int) []int {
	t := &b.tasks[i]
	t.attempts++
	b.attempts++
	t.live = append(t.live, boardAttempt{worker: worker, started: now})
	if b.oldest.IsZero() || now.Before(b.oldest) {
		b.oldest = now
	}
	return append(out, i)
}

// expire drops attempts whose lease ran out. Callers hold b.mu.
func (b *Board) expire(now time.Time) {
	if b.oldest.IsZero() || now.Sub(b.oldest) < b.lease {
		return
	}
	b.oldest = time.Time{}
	for i := range b.tasks {
		t := &b.tasks[i]
		kept := t.live[:0]
		for _, a := range t.live {
			if now.Sub(a.started) >= b.lease {
				b.low = 0
				continue
			}
			kept = append(kept, a)
			if b.oldest.IsZero() || a.started.Before(b.oldest) {
				b.oldest = a.started
			}
		}
		t.live = kept
	}
}

// straggler picks the oldest single-attempt in-flight task not already
// running on worker, with attempt budget left. Callers hold b.mu.
func (b *Board) straggler(worker string) (int, bool) {
	best, ok := 0, false
	var bestStart time.Time
	for i := range b.tasks {
		t := &b.tasks[i]
		if t.done || len(t.live) != 1 || t.live[0].worker == worker || t.attempts >= b.max {
			continue
		}
		if !ok || t.live[0].started.Before(bestStart) {
			best, bestStart, ok = i, t.live[0].started, true
		}
	}
	return best, ok
}

// Complete reports an attempt's result arrival. It returns true when
// this attempt wins the task (first finish) — the caller should keep
// its output — and false for duplicates of already-completed tasks,
// whose output must be discarded.
func (b *Board) Complete(task int, worker string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if task < 0 || task >= len(b.tasks) {
		return false
	}
	t := &b.tasks[task]
	if t.done {
		return false
	}
	t.done = true
	t.winner = worker
	t.live = nil
	b.doneN++
	b.counts[worker]++
	return true
}

// Fail reports an attempt error arriving on a heartbeat: the worker's
// live attempt is dropped immediately, so the task becomes assignable
// on the very next Assign instead of silently waiting out its lease.
//
// dropped is false when the worker held no live attempt for the task —
// a redelivered report (heartbeat replies can be lost mid-frame, so
// reports arrive at-least-once) or one whose lease already expired.
// Such reports are fully ignored: counting them would double-spend the
// failure budget. exhausted is true when MaxAttempts attempts have
// *reported errors* and none is still running — the caller should
// treat that as a permanent task failure. Only reported failures spend
// the budget: lease re-issues after silent worker death and
// speculative duplicates never do (they cap only further speculation),
// or churn could wedge a healthy job.
func (b *Board) Fail(task int, worker string) (dropped, exhausted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if task < 0 || task >= len(b.tasks) {
		return false, false
	}
	t := &b.tasks[task]
	if t.done {
		return false, false
	}
	for i, a := range t.live {
		if a.worker == worker {
			t.live = append(t.live[:i], t.live[i+1:]...)
			t.failures++
			b.low = 0
			return true, t.failures >= b.max && len(t.live) == 0
		}
	}
	return false, false
}

// Release drops worker's live attempt on task without spending the
// failure budget: the immediate-re-issue half of Fail for
// infrastructure failures — a reduce attempt that could not fetch a
// dead peer's shuffle output did nothing wrong, and charging it could
// terminally fail a job that a re-run would finish. It returns false
// when the worker held no live attempt (a redelivered report).
func (b *Board) Release(task int, worker string) (dropped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if task < 0 || task >= len(b.tasks) {
		return false
	}
	t := &b.tasks[task]
	if t.done {
		return false
	}
	for i, a := range t.live {
		if a.worker == worker {
			t.live = append(t.live[:i], t.live[i+1:]...)
			b.low = 0
			return true
		}
	}
	return false
}

// Reopen marks a completed task pending again. The distributed shuffle
// uses it when a finished map task's output is lost with its tracker
// and must be recomputed; the completion count and the winning worker's
// credit are rolled back so accounting stays exact across re-runs, and
// the per-task attempt budget restarts — the earlier attempts did their
// job, losing their output to a dead node must not eat into the re-run's
// failure allowance. The board-wide Attempts total keeps counting every
// launch.
func (b *Board) Reopen(task int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if task < 0 || task >= len(b.tasks) {
		return
	}
	t := &b.tasks[task]
	if !t.done {
		return
	}
	t.done = false
	t.attempts = 0
	t.failures = 0
	t.live = nil
	b.low = 0
	b.doneN--
	b.counts[t.winner]--
	t.winner = ""
}

// Affinity reports the device kind this board's tasks prefer ("" when
// indifferent) — the device-affinity grant pass: a master serving
// several boards grants from boards whose affinity matches the
// heartbeating worker's device kind first (accelerated map tasks land
// on accelerated trackers while those have matching work), then sweeps
// every board, so a mismatched worker falls back to any pending task
// rather than idling.
func (b *Board) Affinity() string { return b.opts.Affinity }

// LiveWorkers reports, per worker, how many attempts are in flight at
// time now (leases that expired by now are dropped first, exactly as
// Assign would). A multi-tenant master sums it across a tenant's
// boards for the fair-share load view, and counts the distinct keys
// against the tenant's tracker quota.
func (b *Board) LiveWorkers(now time.Time) map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expire(now)
	out := make(map[string]int)
	for i := range b.tasks {
		for _, a := range b.tasks[i].live {
			out[a.worker]++
		}
	}
	return out
}

// Done reports whether every task has completed.
func (b *Board) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doneN == len(b.tasks)
}

// Counts returns completed tasks per worker (the winning attempts).
func (b *Board) Counts() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.counts))
	for w, n := range b.counts {
		out[w] = n
	}
	return out
}

// Attempts reports every attempt launched, including re-issues after
// lease expiry and speculative duplicates.
func (b *Board) Attempts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempts
}
