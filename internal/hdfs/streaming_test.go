package hdfs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"hetmr/internal/spill"
)

// streamCluster builds a NameNode with n datanodes.
func streamCluster(t *testing.T, blockSize int64, repl, nodes int, opts ...Option) *NameNode {
	t.Helper()
	nn, err := NewNameNode(blockSize, repl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, err := nn.RegisterDataNode(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { nn.Close() })
	return nn
}

func streamPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// TestReaderByteAtATime drives the Reader with a 1-byte buffer — the
// io.Reader contract at its least convenient.
func TestReaderByteAtATime(t *testing.T) {
	nn := streamCluster(t, 64, 1, 3)
	want := streamPayload(1000) // spans 16 blocks, last one partial
	if err := nn.WriteFile("/f", want, ""); err != nil {
		t.Fatal(err)
	}
	r, err := nn.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 1)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("byte-at-a-time read got %d bytes, differs from the %d written", len(got), len(want))
	}
}

// TestReaderCopyMatchesReadFile pins io.Copy through the Reader to the
// materialized ReadFile path.
func TestReaderCopyMatchesReadFile(t *testing.T) {
	nn := streamCluster(t, 100, 2, 3)
	want := streamPayload(5_555)
	if err := nn.WriteFile("/f", want, ""); err != nil {
		t.Fatal(err)
	}
	r, err := nn.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	var via bytes.Buffer
	n, err := io.Copy(&via, r)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("io.Copy moved %d bytes, want %d", n, len(want))
	}
	whole, err := nn.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(via.Bytes(), whole) || !bytes.Equal(whole, want) {
		t.Fatal("io.Copy, ReadFile and the written bytes disagree")
	}
}

// TestSpillBlockStoreBoundsMemory writes a file far above the store's
// watermark and checks payloads spilled to disk, replicas shared one
// payload, and the bytes read back identically.
func TestSpillBlockStoreBoundsMemory(t *testing.T) {
	store := NewSpillBlockStore(t.TempDir(), 1_000)
	nn := streamCluster(t, 500, 3, 3, WithBlockStore(store))
	want := streamPayload(10_000) // 20 blocks, replication 3
	if err := nn.WriteFile("/f", want, ""); err != nil {
		t.Fatal(err)
	}
	if got := store.MemBytes(); got > 1_000 {
		t.Fatalf("store holds %d bytes in memory above the 1000-byte watermark", got)
	}
	// Replicas share one payload: the store saw the file once, not
	// replication times.
	if total := store.MemBytes() + store.SpilledBytes(); total != int64(len(want)) {
		t.Fatalf("store holds %d payload bytes for a %d-byte file at replication 3 — replicas must share payloads", total, len(want))
	}
	got, err := nn.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("spilled file did not read back identically")
	}
}

// TestCreateFromStreams ingests a reader without materializing it and
// checks Delete releases the spill space.
func TestCreateFromStreams(t *testing.T) {
	store := NewSpillBlockStore(t.TempDir(), spill.SpillAll)
	nn := streamCluster(t, 256, 1, 2, WithBlockStore(store))
	want := streamPayload(4_096)
	n, err := nn.CreateFrom("/f", "", bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("CreateFrom wrote %d bytes, want %d", n, len(want))
	}
	got, err := nn.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("CreateFrom round-trip differs")
	}
	if err := nn.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatal("Delete left payloads in the block store")
	}

	// Ingest costs O(n): the Writer cuts blocks with an offset cursor.
	// The tail-reallocating Writer it replaced allocated O(n²) — 16× the
	// bytes for 4× the input. A buffered lead byte keeps the second case
	// off the straight-from-p shortcut, so every block crosses the
	// Writer's buffer.
	for _, lead := range []int{0, 1} {
		small, large := writeAllocBytes(t, 1<<20, lead), writeAllocBytes(t, 4<<20, lead)
		if ratio := float64(large) / float64(small); ratio >= 8 {
			t.Errorf("lead %d: a 4 MB Write allocated %d bytes, %.1fx the %d of a 1 MB Write — want ~4x, ingest must stay linear",
				lead, large, ratio, small)
		}
	}
}

// writeAllocBytes returns the heap bytes allocated by one Write of size
// bytes (and the Close after it) at a 4 KB block size, with lead bytes
// already sitting in the Writer's buffer.
func writeAllocBytes(t *testing.T, size, lead int) uint64 {
	t.Helper()
	nn := streamCluster(t, 4096, 1, 1)
	data := streamPayload(lead + size)
	w, err := nn.Create("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data[:lead]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := w.Write(data[lead:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSyntheticStillErrs pins that metadata-only files keep refusing
// reads after the store refactor.
func TestSyntheticStillErrs(t *testing.T) {
	nn := streamCluster(t, 100, 1, 2)
	if err := nn.CreateSynthetic("/syn", 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Open("/syn", ""); !errors.Is(err, ErrSynthetic) {
		t.Fatalf("Open on synthetic file: %v", err)
	}
	locs, err := nn.Locations("/syn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.ReadBlock(locs[0].Block, locs[0].Hosts[0]); !errors.Is(err, ErrSynthetic) {
		t.Fatalf("ReadBlock on synthetic block: %v", err)
	}
}
