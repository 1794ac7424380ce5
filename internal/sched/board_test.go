package sched

import (
	"math/rand"
	"testing"
	"time"
)

// The board is driven with a manual clock: every behaviour below is
// fully deterministic.

func boardAt(t *testing.T, n int, lease time.Duration, opts Options) *Board {
	t.Helper()
	b, err := NewBoard(n, lease, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoardAssignsEachTaskOnce(t *testing.T) {
	b := boardAt(t, 5, time.Second, Options{})
	t0 := time.Unix(0, 0)
	got := b.Assign("a", 3, t0, nil)
	if len(got) != 3 {
		t.Fatalf("granted %v, want 3 tasks", got)
	}
	rest := b.Assign("b", 10, t0, nil)
	if len(rest) != 2 {
		t.Fatalf("granted %v, want the remaining 2", rest)
	}
	if more := b.Assign("c", 10, t0, nil); len(more) != 0 {
		t.Fatalf("granted %v with everything leased", more)
	}
	if dup := b.Speculate("c", 10, t0); len(dup) != 0 {
		t.Fatalf("Speculate granted %v on a speculation-off board", dup)
	}
}

func TestBoardRecordsAffinity(t *testing.T) {
	// The device-affinity grant pass lives at the master (serve
	// matching boards first, sweep the rest), so the board's part is
	// carrying the preference faithfully.
	if got := boardAt(t, 1, time.Second, Options{Affinity: "cell"}).Affinity(); got != "cell" {
		t.Errorf("Affinity() = %q, want %q", got, "cell")
	}
	if got := boardAt(t, 1, time.Second, Options{}).Affinity(); got != "" {
		t.Errorf("Affinity() = %q, want empty", got)
	}
}

func TestBoardLocalityFirst(t *testing.T) {
	b := boardAt(t, 4, time.Second, Options{})
	t0 := time.Unix(0, 0)
	local := func(i int) Locality {
		if i == 2 || i == 3 {
			return LocalityNode
		}
		return LocalityRemote
	}
	got := b.Assign("a", 2, t0, local)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("granted %v, want the local tasks [2 3] first", got)
	}
}

func TestBoardRackLocalityOrder(t *testing.T) {
	// Full node → rack → remote order: with three grants available the
	// node-local task goes first, then the rack-local one, then remote.
	b := boardAt(t, 3, time.Second, Options{})
	t0 := time.Unix(0, 0)
	locality := func(i int) Locality {
		switch i {
		case 1:
			return LocalityNode
		case 2:
			return LocalityRack
		default:
			return LocalityRemote
		}
	}
	got := b.Assign("a", 3, t0, locality)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("granted %v, want node-local 1, rack-local 2, remote 0", got)
	}
	// A worker with one slot and only rack-local data still gets it
	// ahead of remote tasks.
	b2 := boardAt(t, 2, time.Second, Options{})
	rackOnly := func(i int) Locality {
		if i == 1 {
			return LocalityRack
		}
		return LocalityRemote
	}
	if got := b2.Assign("b", 1, t0, rackOnly); len(got) != 1 || got[0] != 1 {
		t.Fatalf("granted %v, want the rack-local task [1]", got)
	}
}

func TestBoardLeaseExpiryReissues(t *testing.T) {
	b := boardAt(t, 1, time.Second, Options{})
	t0 := time.Unix(100, 0)
	if got := b.Assign("dead", 1, t0, nil); len(got) != 1 {
		t.Fatalf("granted %v", got)
	}
	// Within the lease the task stays assigned.
	if got := b.Assign("b", 1, t0.Add(500*time.Millisecond), nil); len(got) != 0 {
		t.Fatalf("re-granted %v before the lease expired", got)
	}
	// After expiry it migrates.
	got := b.Assign("b", 1, t0.Add(1100*time.Millisecond), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("granted %v after expiry, want [0]", got)
	}
	if b.Attempts() != 2 {
		t.Errorf("attempts = %d, want 2", b.Attempts())
	}
}

func TestBoardFirstFinishWins(t *testing.T) {
	b := boardAt(t, 1, time.Second, Options{Speculative: true})
	t0 := time.Unix(0, 0)
	b.Assign("slow", 1, t0, nil)
	// Assign never duplicates; the idle second worker gets the
	// speculative duplicate from the dedicated step.
	if got := b.Assign("fast", 1, t0.Add(10*time.Millisecond), nil); len(got) != 0 {
		t.Fatalf("Assign granted %v with no pending tasks", got)
	}
	dup := b.Speculate("fast", 1, t0.Add(10*time.Millisecond))
	if len(dup) != 1 || dup[0] != 0 {
		t.Fatalf("speculative grant = %v, want [0]", dup)
	}
	if !b.Complete(0, "fast") {
		t.Error("first completion rejected")
	}
	if b.Complete(0, "slow") {
		t.Error("late duplicate completion accepted")
	}
	if !b.Done() {
		t.Error("board not done after the only task completed")
	}
	counts := b.Counts()
	if counts["fast"] != 1 || counts["slow"] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestBoardSpeculationPicksOldestAndRespectsCaps(t *testing.T) {
	b := boardAt(t, 3, time.Minute, Options{Speculative: true, MaxAttempts: 2})
	t0 := time.Unix(0, 0)
	b.Assign("a", 1, t0, nil)                    // task 0, oldest
	b.Assign("b", 1, t0.Add(time.Second), nil)   // task 1
	b.Assign("c", 1, t0.Add(2*time.Second), nil) // task 2
	dup := b.Speculate("d", 1, t0.Add(3*time.Second))
	if len(dup) != 1 || dup[0] != 0 {
		t.Fatalf("speculative grant = %v, want the oldest in-flight [0]", dup)
	}
	// Task 0 now has 2 attempts (the cap) and 2 live copies: no worker
	// may speculate it again, and the next-oldest is task 1.
	dup = b.Speculate("e", 1, t0.Add(4*time.Second))
	if len(dup) != 1 || dup[0] != 1 {
		t.Fatalf("second speculative grant = %v, want [1]", dup)
	}
	// A worker never duplicates its own in-flight task.
	if got := b.Speculate("c", 1, t0.Add(5*time.Second)); len(got) != 0 {
		t.Fatalf("worker c granted %v, but only its own task 2 is eligible", got)
	}
}

func TestBoardFailReissuesImmediately(t *testing.T) {
	b := boardAt(t, 1, time.Minute, Options{MaxAttempts: 3})
	t0 := time.Unix(0, 0)
	if got := b.Assign("a", 1, t0, nil); len(got) != 1 {
		t.Fatalf("granted %v", got)
	}
	// A reported failure frees the task well inside its lease.
	dropped, exhausted := b.Fail(0, "a")
	if !dropped || exhausted {
		t.Fatalf("Fail = (%v, %v), want dropped without exhaustion", dropped, exhausted)
	}
	// Reports arrive at-least-once: a redelivered failure finds no
	// live attempt and must not double-spend the budget.
	if dropped, _ := b.Fail(0, "a"); dropped {
		t.Fatal("redelivered failure report counted twice")
	}
	got := b.Assign("b", 1, t0.Add(time.Millisecond), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("granted %v right after the failure, want [0]", got)
	}
	if _, exhausted := b.Fail(0, "b"); exhausted {
		t.Fatal("exhausted at failure 2 of 3")
	}
	b.Assign("c", 1, t0.Add(2*time.Millisecond), nil)
	if _, exhausted := b.Fail(0, "c"); !exhausted {
		t.Fatal("third reported failure did not exhaust the cap")
	}
	// Out-of-range tasks and workers without an attempt are no-ops.
	if d, e := b.Fail(-1, "x"); d || e {
		t.Error("out-of-range failure accepted")
	}
	if d, e := b.Fail(9, "x"); d || e {
		t.Error("out-of-range failure accepted")
	}
}

func TestBoardReopenRollsBackCompletion(t *testing.T) {
	b := boardAt(t, 2, time.Minute, Options{})
	t0 := time.Unix(0, 0)
	b.Assign("a", 2, t0, nil)
	if !b.Complete(0, "a") {
		t.Fatal("completion rejected")
	}
	if n := b.Counts()["a"]; n != 1 {
		t.Fatalf("counts[a] = %d, want 1", n)
	}
	// Reopen: the task is assignable again and the credit rolls back,
	// so accounting stays exact across shuffle re-runs.
	b.Reopen(0)
	if n := b.Counts()["a"]; n != 0 {
		t.Fatalf("counts[a] = %d after reopen, want 0", n)
	}
	got := b.Assign("b", 2, t0.Add(time.Millisecond), nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("granted %v after reopen, want [0] (task 1 still leased)", got)
	}
	if !b.Complete(0, "b") || !b.Complete(1, "a") {
		t.Fatal("re-run completions rejected")
	}
	if !b.Done() {
		t.Error("board not done after every task re-completed")
	}
	b.Reopen(-1) // out-of-range: no-op
	b.Reopen(5)
}

func TestBoardValidation(t *testing.T) {
	if _, err := NewBoard(0, time.Second, Options{}); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := NewBoard(1, 0, Options{}); err == nil {
		t.Error("zero lease accepted")
	}
	b := boardAt(t, 1, time.Second, Options{})
	if b.Complete(5, "x") || b.Complete(-1, "x") {
		t.Error("out-of-range completion accepted")
	}
}

func TestBoardSetOrder(t *testing.T) {
	b, err := NewBoard(4, time.Minute, Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	// LPT-style order: heaviest partitions first.
	b.SetOrder([]int{2, 0, 3, 1})
	got := b.Assign("w1", 4, now, nil)
	want := []int{2, 0, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assign order = %v, want %v", got, want)
		}
	}
	// Invalid orders are rejected: the installed scan stays.
	b2, _ := NewBoard(3, time.Minute, Options{})
	b2.SetOrder([]int{2, 1, 0})
	b2.SetOrder([]int{0, 0, 1}) // duplicate
	b2.SetOrder([]int{5, 1, 0}) // out of range
	b2.SetOrder([]int{1, 0})    // wrong length
	if got := b2.Assign("w", 3, now, nil); got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("invalid SetOrder clobbered the scan: %v", got)
	}
	// nil restores index order.
	b3, _ := NewBoard(3, time.Minute, Options{})
	b3.SetOrder([]int{2, 1, 0})
	b3.SetOrder(nil)
	if got := b3.Assign("w", 3, now, nil); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("SetOrder(nil) did not restore index order: %v", got)
	}
}

func TestBoardSetOrderWithLocality(t *testing.T) {
	b, _ := NewBoard(4, time.Minute, Options{})
	b.SetOrder([]int{3, 2, 1, 0})
	// Node-local tasks still outrank the installed order, but within a
	// locality tier the order applies.
	loc := func(task int) Locality {
		if task == 1 {
			return LocalityNode
		}
		return LocalityRemote
	}
	got := b.Assign("w", 2, time.Now(), loc)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Assign = %v, want [1 3] (node-local first, then heaviest)", got)
	}
}

func TestBoardExcludedTaskGoesToAnotherWorker(t *testing.T) {
	b := boardAt(t, 2, time.Minute, Options{})
	t0 := time.Unix(0, 0)
	// Task 0 is excluded for worker a (and node-local to nobody): a is
	// granted task 1 only, however many slots it offers.
	notZero := func(i int) Locality {
		if i == 0 {
			return LocalityExcluded
		}
		return LocalityRemote
	}
	if got := b.Assign("a", 2, t0, notZero); len(got) != 1 || got[0] != 1 {
		t.Fatalf("worker a granted %v, want [1] (task 0 excluded)", got)
	}
	if got := b.Assign("a", 2, t0, notZero); len(got) != 0 {
		t.Fatalf("worker a granted %v with only its excluded task pending", got)
	}
	// The task stayed pending: the next worker to ask gets it.
	if got := b.Assign("b", 2, t0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("worker b granted %v, want the task a was refused [0]", got)
	}
}

func TestBoardScanSkipsSettledTasks(t *testing.T) {
	const n = 100
	b := boardAt(t, n, time.Minute, Options{})
	t0 := time.Unix(0, 0)
	graded := 0
	grade := func(int) Locality { graded++; return LocalityRemote }
	for i := 0; i < n-1; i++ {
		got := b.Assign("a", 1, t0, nil)
		if len(got) != 1 || !b.Complete(got[0], "a") {
			t.Fatalf("grant %d = %v", i, got)
		}
	}
	// 99 of 100 settled: a graded Assign looks at the one pending task
	// (once per locality tier), not at the settled prefix.
	if got := b.Assign("a", 1, t0, grade); len(got) != 1 || got[0] != n-1 {
		t.Fatalf("granted %v, want [%d]", got, n-1)
	}
	if graded > 3 {
		t.Errorf("Assign graded %d tasks with one pending, want <= 3", graded)
	}
	// Whatever makes an earlier task pending again resets the scan.
	b.Reopen(3)
	if got := b.Assign("b", 1, t0, nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("granted %v after Reopen(3), want [3]", got)
	}
	if dropped, _ := b.Fail(3, "b"); !dropped {
		t.Fatal("failure of the live attempt not recorded")
	}
	if got := b.Assign("a", 1, t0, nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("granted %v after Fail, want [3]", got)
	}
	if !b.Release(3, "a") {
		t.Fatal("release of the live attempt not recorded")
	}
	b.Reopen(7)
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	b.SetOrder(order)
	if got := b.Assign("a", 2, t0, nil); len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("granted %v after SetOrder(reversed), want [7 3]", got)
	}
	// And so does a lease running out.
	if got := b.Assign("c", 1, t0.Add(2*time.Minute), nil); len(got) != 1 || got[0] != n-1 {
		t.Fatalf("granted %v after every lease expired, want [%d] (first of the reversed order)", got, n-1)
	}
}

// TestBoardRandomSchedulesKeepInvariants drives a 2-worker, 3-task
// board through seeded random sequences of every transition under a
// manual clock and checks, after each step, what no interleaving may
// break. (Exhaustive enumeration of the same model is ROADMAP item 5.)
func TestBoardRandomSchedulesKeepInvariants(t *testing.T) {
	const (
		tasks       = 3
		lease       = 10 * time.Second
		maxAttempts = 3
	)
	workers := []string{"a", "b"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := boardAt(t, tasks, lease, Options{Speculative: true, MaxAttempts: maxAttempts})
		now := time.Unix(0, 0)
		// The model: which attempts the workers believe they hold, who
		// holds each task's commit, launches since the task last
		// (re)opened.
		held := map[string]map[int]bool{"a": {}, "b": {}}
		var winner [tasks]string
		var launched [tasks]int
		grant := func(w string, got []int, speculative bool) {
			for _, i := range got {
				if winner[i] != "" {
					t.Fatalf("seed %d: done task %d granted to %s", seed, i, w)
				}
				launched[i]++
				if speculative && launched[i] > maxAttempts {
					t.Fatalf("seed %d: task %d speculated past MaxAttempts (%d launches)", seed, i, launched[i])
				}
				held[w][i] = true
			}
		}
		for step := 0; step < 60; step++ {
			w := workers[rng.Intn(len(workers))]
			i := rng.Intn(tasks)
			switch rng.Intn(7) {
			case 0:
				grant(w, b.Assign(w, 1+rng.Intn(2), now, nil), false)
			case 1:
				grant(w, b.Speculate(w, 1, now), true)
			case 2:
				if held[w][i] {
					delete(held[w], i)
					if won := b.Complete(i, w); won != (winner[i] == "") {
						t.Fatalf("seed %d: Complete(%d, %s) = %v with winner %q", seed, i, w, won, winner[i])
					} else if won {
						winner[i] = w
					}
				}
			case 3:
				if held[w][i] {
					delete(held[w], i)
					b.Fail(i, w)
				}
			case 4:
				if held[w][i] {
					delete(held[w], i)
					b.Release(i, w)
				}
			case 5:
				if winner[i] != "" {
					b.Reopen(i)
					winner[i], launched[i] = "", 0
				}
			case 6:
				now = now.Add(lease / 3)
			}
			counts, done := b.Counts(), 0
			for _, win := range winner {
				if win != "" {
					done++
				}
			}
			if counts["a"]+counts["b"] != done || b.Done() != (done == tasks) {
				t.Fatalf("seed %d step %d: counts %v, Done %v, model has %d done", seed, step, counts, b.Done(), done)
			}
			for _, w := range workers {
				want := 0
				for _, win := range winner {
					if win == w {
						want++
					}
				}
				if counts[w] != want {
					t.Fatalf("seed %d step %d: counts[%s] = %d, model %d", seed, step, w, counts[w], want)
				}
			}
		}
		// No lost task: once every lease has run out, whatever is not
		// done is grantable, and completing it finishes the board.
		now = now.Add(2 * lease)
		for _, i := range b.Assign("a", tasks, now, nil) {
			if !b.Complete(i, "a") {
				t.Fatalf("seed %d: drained task %d was already done", seed, i)
			}
		}
		if !b.Done() {
			t.Fatalf("seed %d: board not done after draining: a task was lost", seed)
		}
	}
}
