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
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1_000, Heartbeat: 10 * time.Millisecond})
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

// TestStreamOutputEncrypt checks an AES job's collected ciphertext
// against the sequential reference, that its output bytes stayed off
// the JobTracker's heartbeat channel, and that the stores free the
// pieces after the client's release.
func TestStreamOutputEncrypt(t *testing.T) {
	const blockSize = 1_000
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: blockSize, Heartbeat: 10 * time.Millisecond,
		SpillDir: t.TempDir(), SpillMem: 2_000, SpillCodec: spill.Flate()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(20_000)
	if err := c.Client.WriteFile("/plain", data, ""); err != nil {
		t.Fatal(err)
	}
	key, iv := []byte("stream-test-key!"), make([]byte, 16)
	args, err := rpcnet.Marshal(AESArgs{Key: key, IV: iv, BlockBytes: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	cip, err := kernels.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(data))
	kernels.CTRStream(cip, iv, 0, want, data)

	got := collect(t, c.Client, JobSpec{
		Name: "enc-stream", Kernel: "aes-ctr", Input: "/plain", Args: args,
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("collected ciphertext (%d bytes) differs from the sequential reference (%d bytes)", len(got), len(want))
	}
	if n := c.JT.DataPlaneBytes(); n != 0 {
		t.Fatalf("the job moved %d output bytes over the heartbeat channel, want 0", n)
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

// TestStreamOutputSortShufflePath collects a distributed-shuffle sort's
// reduce outputs with every shuffle payload spilled to disk and checks
// the concatenated partitions against the in-process sort.
func TestStreamOutputSortShufflePath(t *testing.T) {
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 1_000, Heartbeat: 10 * time.Millisecond,
		SpillDir: t.TempDir(), SpillMem: spill.SpillAll})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := sortableRecords(t, 200) // 20 KB
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	if err := kernels.SortRecords(want); err != nil {
		t.Fatal(err)
	}
	got := collect(t, c.Client, JobSpec{
		Name: "sort-stream", Kernel: "sort", Input: "/records", NumReducers: 3,
		SplitKeys: splitKeysFor(t, data, 3),
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("collected partitions (%d bytes) differ from the in-process sort (%d bytes)", len(got), len(want))
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

// sortableRecords builds n 100-byte records.
func sortableRecords(t *testing.T, n int) []byte {
	t.Helper()
	data := streamCorpus(n * 100)
	return data
}

// TestDataNodeSpillServesBlocks pins the DataNode's disk-backed path:
// blocks spilled under the watermark still serve reads and jobs.
func TestDataNodeSpillServesBlocks(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1_000, Heartbeat: 10 * time.Millisecond,
		SpillDir: t.TempDir(), SpillMem: spill.SpillAll, SpillCodec: spill.Flate()})
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
// structured kernel's job — whose result is inline in the Status reply,
// with no stored pieces — errors instead of hanging or returning
// nothing.
func TestWaitOutputRejectsInlineJob(t *testing.T) {
	c, err := StartCluster(Config{Workers: 2, Slots: 2, BlockSize: 1_000, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/in", shuffleCorpus(2_000, 13), ""); err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{Name: "wc", Kernel: "wordcount", Input: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.WaitOutput(id, 30*time.Second, io.Discard); err == nil {
		t.Fatal("WaitOutput on an inline job succeeded")
	}
}
