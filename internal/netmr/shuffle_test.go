package netmr

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmr/internal/core"
	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// The distributed shuffle/reduce data plane: map outputs stay in the
// mapper trackers' shuffle stores, reducers pull partitions directly,
// and the JobTracker moves metadata — with results bit-identical to
// the in-process reference, including under a tracker killed mid-job.

// storedPiece copies the piece of a job's stored output that k names,
// as FetchPartition would serve it.
func storedPiece(st *shuffleStore, jobID int64, k partKey) ([]byte, bool) {
	data, _, done, err := st.lend(jobID, k, 0, 0)
	if err != nil {
		return nil, false
	}
	defer done()
	return bytes.Clone(data), true
}

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
	return runCounts(t, raw), c.JT.DataPlaneBytes()
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
	// word runs across 3 partials), whatever the input size.
	const bound = 4 << 10
	for _, size := range []int{50_000, 200_000} {
		if _, n := runWordCount(t, 3, shuffleCorpus(size, 97), 1000); n == 0 || n > bound {
			t.Errorf("%d B input: heartbeats carried %d B of task output, want 1..%d", size, n, bound)
		}
	}
}

// TestWordCountResultIsOneSortedRun: a word count's StatusReply.Result
// is the merged word run — every word once, in byte order — so one job
// run twice gives the same bytes, and they are the bytes live's
// core.RunWordCount returns over the same blocks. A gob-encoded map
// followed Go's random map order. The host Partitions counted in the
// trackers' slot tables, of which each tracker still holds Slots.
func TestWordCountResultIsOneSortedRun(t *testing.T) {
	const blockSize, slots = 4096, 2
	corpus := zipfText(3, 40_000)
	c, err := StartCluster(Config{Workers: 3, Slots: slots, BlockSize: blockSize, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	var results [2][]byte
	for i := range results {
		if results[i], err = submitAndWait(c.Client, JobSpec{Name: "wc", Kernel: "wordcount", Input: "/corpus", NumReducers: 3}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("two runs of one word count returned different bytes (%d and %d)", len(results[0]), len(results[1]))
	}
	runCounts(t, results[0]) // fails unless it is one strictly ascending run
	live, err := core.NewLiveCluster(core.Config{Nodes: 2, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.FS.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	want, err := live.RunWordCount("/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0], want) {
		t.Errorf("net result of %d bytes differs from live's run of %d", len(results[0]), len(want))
	}
	used := false
	for _, tt := range c.TTs {
		if len(tt.words) != slots {
			t.Errorf("tracker %s holds %d word tables after its tasks, want %d", tt.ID, len(tt.words), slots)
		}
		for range len(tt.words) {
			tab := <-tt.words
			tab.Each(func(string, int64) { used = true })
			tt.words <- tab
		}
	}
	if !used {
		t.Error("no slot table holds a word: the host Partitions counted elsewhere")
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
	counts := runCounts(t, raw)
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

// killAfterFirstChunk kills the first tracker in tts that is asked for
// a piece's second chunk, so it dies having sent the first: that call
// and every later one it gets fail, and the other trackers serve as
// usual. It returns a func reporting the killed tracker (nil while none
// is).
func killAfterFirstChunk(tts []*TaskTracker) func() *TaskTracker {
	var (
		mu     sync.Mutex
		killed *TaskTracker
	)
	for _, tt := range tts {
		handleTail(tt.srv, "FetchPartition", func(args FetchPartitionArgs, tail *rpcnet.Tail) (FetchPartitionReply, rpcnet.Reply, error) {
			mu.Lock()
			if killed == nil && args.Offset > 0 {
				killed = tt
				go tt.Kill() // Kill waits for this handler to return
			}
			dead := killed == tt
			mu.Unlock()
			if dead {
				return FetchPartitionReply{}, rpcnet.Reply{}, fmt.Errorf("tracker %s died mid-stream", tt.ID)
			}
			return tt.handleFetchPartition(args, tail)
		})
	}
	return func() *TaskTracker {
		mu.Lock()
		defer mu.Unlock()
		return killed
	}
}

// TestReduceFailsOverWhenAPeerDiesMidStream kills the tracker serving a
// remote piece after it has sent the piece's first chunk, while the
// reduce is merging it. The reduce attempt must fail naming that
// tracker's store (BadAddr), and a whole job must still finish with the
// reference output through the re-run of the dead tracker's map tasks.
func TestReduceFailsOverWhenAPeerDiesMidStream(t *testing.T) {
	t.Run("attempt", func(t *testing.T) {
		var tts [2]*TaskTracker
		for i := range tts {
			tt, err := StartTaskTracker(fmt.Sprintf("tt%d", i), "127.0.0.1:1", "", 0, Config{Slots: 1, Heartbeat: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer tt.Kill()
			tts[i] = tt
		}
		const jobID = 1
		task := Task{JobID: jobID, Kernel: "sort", Reduce: true}
		for m := 0; m < 2; m++ {
			run, err := kernels.SortedRecords(kernels.GenerateSortRecords(uint64(m)+1, 2000)) // 200 KB: four chunks
			if err != nil {
				t.Fatal(err)
			}
			if err := tts[0].store.put(jobID, mapOutputKey(m), run, []int64{int64(len(run))}); err != nil {
				t.Fatal(err)
			}
			task.Inputs = append(task.Inputs, MapOutputRef{MapTask: m, Addr: tts[0].ShuffleAddr()})
		}
		killed := killAfterFirstChunk(tts[:1])
		var res TaskResult
		err := tts[1].runReduce(task, kernelRegistry["sort"], &res)
		if err == nil {
			t.Fatal("the reduce finished without the pieces of a tracker that died mid-stream")
		}
		if killed() != tts[0] {
			t.Fatal("the serving tracker was not killed after a first chunk")
		}
		if res.BadAddr != tts[0].ShuffleAddr() {
			t.Fatalf("the failed attempt blames %q, want the dead store %q (err: %v)", res.BadAddr, tts[0].ShuffleAddr(), err)
		}
		if _, ok := storedPiece(tts[1].store, jobID, streamedReduceKey(0)); ok {
			t.Fatal("the failed attempt stored an output")
		}
	})

	t.Run("job", func(t *testing.T) {
		// One slot per tracker and a 40 ms task spread the three map
		// tasks over the trackers, so every reduce has remote pieces.
		delay := 40 * time.Millisecond
		c, err := StartCluster(Config{Workers: 3, Slots: 1, BlockSize: 400_000, Heartbeat: 10 * time.Millisecond,
			TaskLease: 400 * time.Millisecond, TaskDelays: []time.Duration{delay, delay, delay}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		data := sortableRecords(t, 12_000) // 1.2 MB in three blocks: 200 KB pieces
		if err := c.Client.WriteFile("/records", data, ""); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), data...)
		if err := kernels.SortRecords(want); err != nil {
			t.Fatal(err)
		}
		killed := killAfterFirstChunk(c.TTs)
		id, err := c.Client.Submit(JobSpec{
			Name: "sort-midstream", Kernel: "sort", Input: "/records", NumReducers: 2,
			SplitKeys: splitKeysFor(t, data, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		st, err := c.Client.WaitOutput(id, 30*time.Second, &got)
		if err != nil {
			t.Fatal(err)
		}
		if killed() == nil {
			t.Fatal("no tracker died mid-stream")
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("the job's output (%d bytes) differs from the in-process sort (%d bytes)", got.Len(), len(want))
		}
		if st.Attempts <= st.Total {
			t.Fatalf("%d attempts for %d tasks: the dead tracker's work was not re-run", st.Attempts, st.Total)
		}
	})
}

// TestLoansOutlivePurgeAndClose: a FetchPartition reply is lent from a
// map run, so when purgeJob or the store's Close drops the run while the
// reply is still unwritten, the reply's bytes stay intact — race builds
// poison what is recycled — and the run goes back to rpcnet's pool only
// at the reply's Release.
func TestLoansOutlivePurgeAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(*shuffleStore)
	}{
		{"purge", func(st *shuffleStore) { st.purgeJob(1) }},
		{"close", func(st *shuffleStore) { st.close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt, err := StartTaskTracker("tt", "127.0.0.1:1", "", 0, Config{Slots: 1, Heartbeat: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer tt.Kill()
			var mu sync.Mutex
			var handedBack [][]byte
			tt.store.s.OnRelease(func(p []byte) {
				mu.Lock()
				handedBack = append(handedBack, p)
				mu.Unlock()
				recycleBulk(p)
			})
			block := kernels.GenerateSortRecords(61, 4_000) // 400 KB: a bulk-class run
			split := [][]byte{block[2_000*kernels.SortRecordBytes:][:kernels.SortKeyBytes]}
			run, sizes, err := kernelRegistry["sort"].Partition(Task{SplitKeys: split}, block, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(run[sizes[0]+100:][:64<<10])
			if err := tt.store.put(1, mapOutputKey(0), run, sizes); err != nil {
				t.Fatal(err)
			}
			_, reply, err := tt.handleFetchPartition(FetchPartitionArgs{JobID: 1, MapTask: 0, Part: 1, Offset: 100, MaxBytes: 64 << 10}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Release == nil {
				t.Fatal("a reply lent from the store has no Release")
			}
			tc.drop(tt.store)
			mu.Lock()
			early := len(handedBack)
			mu.Unlock()
			if early != 0 {
				t.Fatal("the run went back to the pool while a reply still lent it")
			}
			if !bytes.Equal(reply.Bytes, want) {
				t.Fatal("a lent reply changed when its run was dropped")
			}
			reply.Release()
			mu.Lock()
			defer mu.Unlock()
			if len(handedBack) != 1 || &handedBack[0][0] != &run[0] {
				t.Fatalf("after the reply's Release %d payloads went back, want the run", len(handedBack))
			}
		})
	}
}
