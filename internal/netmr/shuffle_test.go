package netmr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// The distributed shuffle/reduce data plane: map outputs stay in the
// mapper trackers' shuffle stores, reducers pull partitions directly,
// and the JobTracker moves metadata — with results bit-identical to
// the in-process reference, including under a tracker killed mid-job.

// shuffleCorpus builds a word corpus whose 5-byte words never straddle
// the given block size, with vocab distinct words repeating across
// blocks — repetition is what keeps the merged reduce outputs bounded
// by the vocabulary while the input grows.
func shuffleCorpus(byteLen, vocab int) []byte {
	var sb strings.Builder
	for i := 0; sb.Len() < byteLen; i++ {
		fmt.Fprintf(&sb, "w%03d ", i%vocab)
	}
	return []byte(sb.String()[:byteLen])
}

// runWordCount submits one wordcount job with the given reduce-task
// count and returns the decoded result plus the JobTracker's data
// plane byte meter after the run.
func runWordCount(t *testing.T, reducers int, corpus []byte, blockSize int64) (map[string]int64, int64) {
	t.Helper()
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: blockSize, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := submitAndWait(c.Client, JobSpec{
		Name: "wc", Kernel: "wordcount", Input: "/corpus", NumReducers: reducers,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]int64
	if err := rpcnet.Unmarshal(raw, &counts); err != nil {
		t.Fatal(err)
	}
	return counts, c.JT.DataPlaneBytes()
}

func TestDistributedShuffleWordCountMatchesCentralized(t *testing.T) {
	// 1000-byte blocks of 5-byte words: words never straddle blocks,
	// so the serial reference needs no block-boundary care.
	corpus := shuffleCorpus(100_000, 97)
	want := kernels.WordCount(corpus)
	for _, reducers := range []int{0, 3} { // 0 means 1
		got, _ := runWordCount(t, reducers, corpus, 1000)
		if len(got) != len(want) {
			t.Fatalf("reducers=%d: %d distinct words, reference has %d", reducers, len(got), len(want))
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("reducers=%d: count[%s] = %d, want %d", reducers, w, got[w], n)
			}
		}
	}
}

func TestDistributedShuffleHeartbeatStaysMetadataSized(t *testing.T) {
	// The heartbeats of a shuffle job carry the R merged reduce outputs
	// and nothing else: bounded by the vocabulary (97 words, ~1.2 KB of
	// gob across 3 partials), whatever the input size.
	const bound = 4 << 10
	for _, size := range []int{50_000, 200_000} {
		if _, n := runWordCount(t, 3, shuffleCorpus(size, 97), 1000); n == 0 || n > bound {
			t.Errorf("%d B input: heartbeats carried %d B of task output, want 1..%d", size, n, bound)
		}
	}
}

func TestDistributedShuffleSortMatchesCentralized(t *testing.T) {
	input := kernels.GenerateSortRecords(2009, 2000) // 200 KB
	want := append([]byte(nil), input...)
	if err := kernels.SortRecords(want); err != nil {
		t.Fatal(err)
	}
	for _, reducers := range []int{0, 3} { // 0 means 1
		c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 5000, Heartbeat: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.WriteFile("/records", input, ""); err != nil {
			t.Fatal(err)
		}
		spec := JobSpec{Name: "sort", Kernel: "sort", Input: "/records", NumReducers: reducers}
		if reducers > 1 {
			spec.SplitKeys = splitKeysFor(t, input, reducers)
		}
		got := collect(t, c.Client, spec)
		if n := c.JT.DataPlaneBytes(); n != 0 {
			t.Errorf("reducers=%d: %d sort output bytes rode heartbeats, want 0", reducers, n)
		}
		c.Shutdown()
		if !bytes.Equal(got, want) {
			t.Fatalf("reducers=%d: distributed sort differs from the in-process sort (%d vs %d bytes)",
				reducers, len(got), len(want))
		}
	}
}

func TestShuffleRerunAfterTrackerDeath(t *testing.T) {
	// Kill a tracker after its map outputs are in the shuffle store
	// but before the reducers fetched them: the fetch failures must
	// reopen the dead tracker's map tasks and the job must still
	// produce the exact result. Every task sleeps 80ms, so the window
	// between "all maps done" and "reduces fetched" is wide.
	corpus := shuffleCorpus(30_000, 31)
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 1000, Heartbeat: 10 * time.Millisecond,
		TaskLease: 400 * time.Millisecond, TaskDelays: []time.Duration{80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{
		Name: "wc-rerun", Kernel: "wordcount", Input: "/corpus", NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the map phase to complete (30 blocks), then kill the
	// tracker holding the most map outputs.
	mapTasks := 30
	var victim *TaskTracker
	for start := time.Now(); ; {
		st, err := c.Client.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			t.Fatal("job finished before the kill window — widen the task delay")
		}
		if st.Completed >= mapTasks {
			best := ""
			for w, n := range st.Counts {
				if best == "" || n > st.Counts[best] {
					best = w
				}
			}
			for i, tt := range c.TTs {
				if fmt.Sprintf("tracker-%d", i) == best {
					victim = tt
				}
			}
			break
		}
		if time.Since(start) > 20*time.Second {
			t.Fatal("map phase never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == nil {
		t.Fatal("no tracker credited with map completions")
	}
	victim.Kill()
	raw, err := waitResult(c.Client, id, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]int64
	if err := rpcnet.Unmarshal(raw, &counts); err != nil {
		t.Fatal(err)
	}
	want := kernels.WordCount(corpus)
	if len(counts) != len(want) {
		t.Fatalf("got %d words, want %d", len(counts), len(want))
	}
	for w, n := range want {
		if counts[w] != n {
			t.Fatalf("count[%s] = %d, want %d", w, counts[w], n)
		}
	}
	// The dead tracker's map outputs were recomputed: more attempts
	// than the task count.
	st, err := c.Client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts <= st.Total {
		t.Errorf("attempts = %d with %d tasks: no shuffle re-run happened", st.Attempts, st.Total)
	}
}

func TestShuffleStoreGCAfterJobDone(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1000, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	corpus := shuffleCorpus(10_000, 13)
	if err := c.Client.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(c.Client, JobSpec{
		Name: "wc-gc", Kernel: "wordcount", Input: "/corpus", NumReducers: 2,
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// The next heartbeats negotiate the purge: held jobs the
	// JobTracker reports done are dropped from every shuffle store.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, tt := range c.TTs {
			ids, _ := tt.store.held()
			held += len(ids)
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shuffle stores still hold data for the finished job", held)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
