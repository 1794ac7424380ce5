package core

import (
	"bytes"
	"testing"

	"hetmr/internal/kernels"
	"hetmr/internal/metrics"
	"hetmr/internal/spill"
	"hetmr/internal/spurt"
)

// runSortOn sorts a generated dataset on the given cluster and
// returns the output bytes.
func runSortOn(t *testing.T, c *LiveCluster, data []byte) []byte {
	t.Helper()
	if err := c.FS.WriteFile("/in", data, ""); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := c.RunSort("/in", &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSortWithSpillMatchesInMemory pins the streaming sort's contract:
// spilling to disk changes where bytes live, never what they are.
func TestSortWithSpillMatchesInMemory(t *testing.T) {
	data := kernels.GenerateSortRecords(2009, 3_000) // 300 KB
	mem, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	want := runSortOn(t, mem, data)

	before := metrics.SpillBytes.Load()
	spilled, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 5_000,
		SpillDir: t.TempDir(), SpillMem: 20_000, SpillCodec: spill.Flate()})
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	got := runSortOn(t, spilled, data)
	if !bytes.Equal(got, want) {
		t.Fatal("spilled sort output differs from the in-memory sort")
	}
	if metrics.SpillBytes.Load() == before {
		t.Fatal("a 300 KB sort under a 20 KB watermark never spilled")
	}
	sorted, err := kernels.RecordsSorted(got)
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Fatal("output is not sorted")
	}
}

// TestStreamWithSpillMatchesInMemory does the same for the stream
// (encryption-shaped) job path.
func TestStreamWithSpillMatchesInMemory(t *testing.T) {
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	cipher, err := kernels.NewCipher([]byte("spill-test-key16"))
	if err != nil {
		t.Fatal(err)
	}
	newKernel := func() spurt.BlockKernel {
		return spurt.KernelFunc{
			KernelName: "aes-ctr",
			Fn:         kernels.CTRBlockFunc(cipher, make([]byte, 16)),
		}
	}
	run := func(c *LiveCluster) []byte {
		t.Helper()
		if err := c.FS.WriteFile("/in", data, ""); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := c.RunStream(&StreamJob{Name: "enc", Input: "/in", Kernel: newKernel()}, &out); err != nil {
			t.Fatal(err)
		}
		if out.Len() != len(data) {
			t.Fatalf("stream wrote %d bytes, want %d", out.Len(), len(data))
		}
		return out.Bytes()
	}
	mem, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 8_192})
	if err != nil {
		t.Fatal(err)
	}
	want := run(mem)
	spilled, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 8_192, SpillDir: t.TempDir(), SpillMem: 16_384})
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	got := run(spilled)
	if !bytes.Equal(got, want) {
		t.Fatal("spilled stream output differs from the in-memory run")
	}
}
