package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/sched"
)

// Dynamic-scheduler behaviour of the live runner: a straggling node
// must neither change results nor gate the job when speculation is on.
// This mirrors internal/hadoop's TestSpeculativeExecution on the
// functional (wall-clock) runner instead of the simulated one.

// stragglerText builds a corpus of 4-byte words so 64-byte blocks
// never split a word.
func stragglerText() string {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "w%02d ", i%7)
	}
	return sb.String()
}

// stragglerCluster builds a 4-node cluster whose node000 sleeps delay
// on every task it executes. The healthy nodes get a small per-task
// cost of their own so the job cannot drain before the straggler's
// slot goroutines have pulled work — keeping the timing assertions
// deterministic.
func stragglerCluster(t *testing.T, delay time.Duration, speculative bool) *LiveCluster {
	t.Helper()
	cfg := Config{Nodes: 4, BlockSize: 64, Sched: sched.Options{Speculative: speculative}}
	if delay > 0 {
		pace := 2 * time.Millisecond
		cfg.TaskDelays = []time.Duration{delay, pace, pace, pace}
	}
	c, err := NewLiveCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("/input.txt", []byte(stragglerText()), ""); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpeculationRescuesStragglerDeterministically(t *testing.T) {
	// node000 is made orders of magnitude slower than its peers (every
	// task costs it an extra 300ms; the real map work is microseconds).
	const delay = 300 * time.Millisecond

	reference, err := stragglerCluster(t, 0, false).RunWordCount("/input.txt")
	if err != nil {
		t.Fatal(err)
	}

	// Without speculation, the straggler's first in-flight task gates
	// the job: the other nodes pull the rest of its blocks, but nothing
	// rescues the task it is already sleeping on.
	slow := stragglerCluster(t, delay, false)
	start := time.Now()
	res, err := slow.RunWordCount("/input.txt")
	if err != nil {
		t.Fatal(err)
	}
	noSpec := time.Since(start)
	assertSameCounts(t, "no-speculation straggler", reference, res)

	// With speculation, an idle fast node duplicates the straggler's
	// in-flight task and the first finish wins: the job completes while
	// the straggler is still asleep.
	spec := stragglerCluster(t, delay, true)
	start = time.Now()
	res, err = spec.RunWordCount("/input.txt")
	if err != nil {
		t.Fatal(err)
	}
	withSpec := time.Since(start)
	// A block merged twice would double its words' counts.
	assertSameCounts(t, "speculative straggler", reference, res)

	stats := spec.LastStats()
	if stats == nil {
		t.Fatal("no scheduler stats recorded")
	}
	speculated := 0
	for _, w := range stats.Workers {
		speculated += w.Speculated
	}
	if speculated == 0 {
		t.Error("no speculative attempt launched against the straggler")
	}
	if withSpec >= delay {
		t.Errorf("speculative run took %v, want < the straggler's %v task delay", withSpec, delay)
	}
	if noSpec < delay {
		t.Logf("baseline run (%v) finished before one straggler delay (%v); straggler never pulled a task this run", noSpec, delay)
	} else if withSpec >= noSpec {
		t.Errorf("speculation (%v) did not beat the baseline (%v)", withSpec, noSpec)
	}
}

func TestStragglerPiCountsBitIdentical(t *testing.T) {
	// The canonical Pi decomposition must produce the same counts
	// whether or not a straggler and speculation are in play — the
	// per-task seeds, not the executing nodes, define the result.
	tasks := kernels.SplitSamples(120_000, 10, 2009)
	c := stragglerCluster(t, 5*time.Millisecond, true)
	inside1, total1, err := c.RunPiTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats := c.LastStats(); stats == nil || stats.Tasks != 10 {
		t.Errorf("scheduler stats = %+v, want 10 tasks", stats)
	}
	plain := stragglerCluster(t, 0, false)
	inside2, total2, err := plain.RunPiTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if inside1 != inside2 || total1 != total2 {
		t.Errorf("pi counts under straggler = %d/%d, plain = %d/%d",
			inside1, total1, inside2, total2)
	}
	if total1 != 120_000 {
		t.Errorf("total = %d, want 120000", total1)
	}
}

func assertSameCounts(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: word run %q, want %q", label, got, want)
	}
}
