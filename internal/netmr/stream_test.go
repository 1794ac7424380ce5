package netmr

import (
	"bytes"
	"io"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

func streamCorpus(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>10)
	}
	return data
}

// TestWriteFromStreams pins the streaming ingest path: WriteFrom from
// an io.Reader must lay out the same blocks WriteFile does.
func TestWriteFromStreams(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(10_500) // 11 blocks, last partial
	n, err := c.Client.WriteFrom("/streamed", bytes.NewReader(data), "")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("WriteFrom wrote %d bytes, want %d", n, len(data))
	}
	got, err := c.Client.ReadFile("/streamed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("WriteFrom round-trip differs")
	}
}

// TestStreamOutputEncrypt runs the same AES job with the result inline
// and streamed, and checks (a) bit-identical ciphertext, (b) the
// streamed run kept output bytes off the JobTracker's heartbeat
// channel, and (c) the stores free the pieces after the client's
// release.
func TestStreamOutputEncrypt(t *testing.T) {
	const blockSize = 1_000
	c, err := StartCluster(3, 2, blockSize, 10*time.Millisecond,
		WithSpill(t.TempDir(), 2_000, spill.Flate()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(20_000)
	if err := c.Client.WriteFile("/plain", data, ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{
		Key: []byte("stream-test-key!"), IV: make([]byte, 16), BlockBytes: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: inline result.
	want, err := c.Client.SubmitAndWait(JobSpec{
		Name: "enc-inline", Kernel: "aes-ctr", Input: "/plain", Args: args,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	inlineBytes := c.JT.DataPlaneBytes()

	// Streamed result.
	id, err := c.Client.Submit(JobSpec{
		Name: "enc-stream", Kernel: "aes-ctr", Input: "/plain", Args: args,
		StreamOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, _, err := c.Client.WaitOutput(id, 30*time.Second, &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("streamed %d bytes, want %d", n, len(want))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("streamed ciphertext differs from the inline result")
	}
	streamBytes := c.JT.DataPlaneBytes() - inlineBytes
	if streamBytes != 0 {
		t.Fatalf("streamed run moved %d output bytes over the heartbeat channel, want 0", streamBytes)
	}
	// The release negotiated over heartbeats frees every store.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, tt := range c.TTs {
			ids, _ := tt.store.held()
			held += len(ids)
		}
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stores still hold streamed outputs after release", held)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamOutputSortShufflePath streams a distributed-shuffle sort's
// reduce outputs and checks the concatenated partitions match the
// inline shuffle result bit for bit.
func TestStreamOutputSortShufflePath(t *testing.T) {
	c, err := StartCluster(3, 2, 1_000, 10*time.Millisecond,
		WithSpill(t.TempDir(), 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := sortableRecords(t, 200) // 20 KB
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	want, err := c.Client.SubmitAndWait(JobSpec{
		Name: "sort-inline", Kernel: "sort", Input: "/records", NumReducers: 3,
	}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{
		Name: "sort-stream", Kernel: "sort", Input: "/records", NumReducers: 3,
		StreamOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The inline path's final Reduce merges the partition runs; the
	// streamed path hands the client the partitions in order. The
	// shuffle hash-routes keys, so byte equality only holds after
	// re-merging the streamed pieces. The stream is the pieces and
	// nothing else — no framing — so cutting it at every key drop
	// recovers them: each reduce output is one sorted run, hence at
	// most NumReducers runs.
	var got bytes.Buffer
	if _, _, err := c.Client.WaitOutput(id, 30*time.Second, &got); err != nil {
		t.Fatal(err)
	}
	pieces := sortedRuns(got.Bytes())
	if len(pieces) > 3 {
		t.Fatalf("streamed output holds %d sorted runs, want at most one per reducer (3)", len(pieces))
	}
	if got.Len() != len(want) {
		t.Fatalf("streamed %d bytes, inline produced %d", got.Len(), len(want))
	}
	merged, err := kernels.MergeSortedRuns(pieces)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, want) {
		t.Fatal("re-merged streamed partitions differ from the inline sort")
	}
	spilledAnywhere := false
	for _, tt := range c.TTs {
		if tt.SpilledBytes() > 0 {
			spilledAnywhere = true
		}
	}
	if !spilledAnywhere {
		t.Fatal("SpillAll watermark but no tracker spilled shuffle payloads")
	}
}

// sortedRuns cuts a concatenation of sorted record runs back into
// sorted runs: a new run starts wherever a key is below its
// predecessor.
func sortedRuns(stream []byte) [][]byte {
	var runs [][]byte
	start := 0
	for off := kernels.SortRecordBytes; off <= len(stream); off += kernels.SortRecordBytes {
		if off == len(stream) || bytes.Compare(stream[off:off+kernels.SortKeyBytes],
			stream[off-kernels.SortRecordBytes:off-kernels.SortRecordBytes+kernels.SortKeyBytes]) < 0 {
			runs = append(runs, stream[start:off])
			start = off
		}
	}
	return runs
}

// sortableRecords builds n 100-byte records.
func sortableRecords(t *testing.T, n int) []byte {
	t.Helper()
	data := streamCorpus(n * 100)
	return data
}

// TestDataNodeSpillServesBlocks pins the DataNode's disk-backed path:
// blocks spilled under the watermark still serve reads and jobs.
func TestDataNodeSpillServesBlocks(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond,
		WithSpill(t.TempDir(), 0, spill.Flate()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(8_000)
	if err := c.Client.WriteFile("/spilled", data, ""); err != nil {
		t.Fatal(err)
	}
	spilled := int64(0)
	for _, dn := range c.DNs {
		spilled += dn.SpilledBytes()
	}
	if spilled == 0 {
		t.Fatal("SpillAll watermark but no DataNode spilled blocks")
	}
	got, err := c.Client.ReadFile("/spilled")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spilled blocks did not read back identically")
	}
}

// TestWaitOutputRejectsInlineJob pins the misuse path: WaitOutput on a
// job submitted without StreamOutput errors instead of hanging or
// returning nothing.
func TestWaitOutputRejectsInlineJob(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/in", streamCorpus(2_000), ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{
		Key: []byte("stream-test-key!"), IV: make([]byte, 16), BlockBytes: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{
		Name: "enc", Kernel: "aes-ctr", Input: "/in", Args: args,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Client.WaitOutput(id, 30*time.Second, io.Discard); err == nil {
		t.Fatal("WaitOutput on an inline job succeeded")
	}
}
