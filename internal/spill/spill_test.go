package spill

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func payload(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + salt
	}
	return p
}

func TestMemoryOnlyNeverSpills(t *testing.T) {
	s := NewStore(t.TempDir(), 0, nil)
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Put(string(rune('a'+i)), payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.SpilledBytes() != 0 {
		t.Fatalf("spilled %d bytes with a 0 watermark", s.SpilledBytes())
	}
	if s.MemBytes() != 80_000 {
		t.Fatalf("mem use %d, want 80000", s.MemBytes())
	}
}

func TestWatermarkSpillsAboveLimit(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 25_000, nil)
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(string(rune('a'+i)), payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MemBytes(); got > 25_000 {
		t.Fatalf("mem use %d exceeds the 25000 watermark", got)
	}
	if got := s.SpilledBytes(); got != 30_000 {
		t.Fatalf("spilled %d bytes, want 30000", got)
	}
	// Every payload reads back identically, spilled or not.
	for i := 0; i < 5; i++ {
		got, err := s.Get(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(10_000, byte(i))) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
}

func TestSpillAllAndStreamingOpen(t *testing.T) {
	s := NewStore(t.TempDir(), SpillAll, nil)
	defer s.Close()
	want := payload(50_000, 7)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	if s.MemBytes() != 0 {
		t.Fatalf("mem use %d with SpillAll", s.MemBytes())
	}
	r, err := s.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed payload differs")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir(), SpillAll, Flate())
	defer s.Close()
	// Compressible payload: the frame on disk must be smaller, the
	// read-back identical.
	want := bytes.Repeat([]byte("becerra cell spe "), 4_000)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("compressed payload did not round-trip")
	}
	var onDisk int64
	filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk >= int64(len(want)) {
		t.Fatalf("frame on disk %d >= payload %d: codec did not compress", onDisk, len(want))
	}
}

func TestPutReplacesAndDeleteFrees(t *testing.T) {
	s := NewStore(t.TempDir(), 0, nil)
	defer s.Close()
	if err := s.Put("k", payload(1_000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", payload(500, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.MemBytes(); got != 500 {
		t.Fatalf("mem use %d after replace, want 500", got)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(500, 2)) {
		t.Fatal("replaced payload differs")
	}
	s.Delete("k")
	if s.MemBytes() != 0 || s.Len() != 0 {
		t.Fatal("delete did not free the entry")
	}
	if _, err := s.Get("k"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

func TestCloseRemovesSpillDir(t *testing.T) {
	base := t.TempDir()
	s := NewStore(base, SpillAll, nil)
	if err := s.Put("k", payload(1_000, 3)); err != nil {
		t.Fatal(err)
	}
	dir := s.dir
	if dir == "" {
		t.Fatal("no spill dir created")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close", dir)
	}
	if err := s.Put("k", nil); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
}

func TestHotPartitionReadmission(t *testing.T) {
	s := NewStore(t.TempDir(), 25_000, nil)
	defer s.Close()
	// a, b fill the watermark; c spills.
	for i, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.MemBytes() != 20_000 || s.SpilledBytes() != 10_000 {
		t.Fatalf("mem=%d spilled=%d, want 20000/10000", s.MemBytes(), s.SpilledBytes())
	}
	// c cannot be re-admitted while a and b (primary residents) hold
	// the watermark.
	if got, _ := s.Get("c"); !bytes.Equal(got, payload(10_000, 2)) {
		t.Fatal("spilled payload corrupted")
	}
	if s.ReadmittedBytes() != 0 {
		t.Fatalf("readmitted %d with no headroom, want 0", s.ReadmittedBytes())
	}
	// Freeing a primary resident makes room: the next fetch of c is
	// promoted into memory and subsequent reads hit the cache.
	s.Delete("a")
	if got, _ := s.Get("c"); !bytes.Equal(got, payload(10_000, 2)) {
		t.Fatal("spilled payload corrupted")
	}
	if s.ReadmittedBytes() != 10_000 {
		t.Fatalf("readmitted %d, want 10000", s.ReadmittedBytes())
	}
	if s.MemBytes() != 20_000 {
		t.Fatalf("mem use %d after re-admission, want 20000", s.MemBytes())
	}
	// The hot copy keeps its frame on disk, so a new primary Put that
	// needs the room simply evicts it — and c still reads back whole.
	if err := s.Put("d", payload(10_000, 3)); err != nil {
		t.Fatal(err)
	}
	if got := s.SpilledBytes(); got != 10_000 {
		t.Fatalf("spilled %d after hot eviction made room, want 10000", got)
	}
	if got, _ := s.Get("c"); !bytes.Equal(got, payload(10_000, 2)) {
		t.Fatal("payload lost across hot eviction")
	}
}

func TestReadmissionLRU(t *testing.T) {
	s := NewStore(t.TempDir(), 20_000, nil)
	defer s.Close()
	// Everything spills except nothing is resident: watermark 20000,
	// three 10000-byte payloads -> a, b in memory, c spilled... keep it
	// deterministic instead: spill-everything via tiny watermark is no
	// re-admission, so use explicit deletes.
	for i, k := range []string{"x", "y", "z"} {
		if err := s.Put(k, payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// x, y resident; z spilled. Free both residents.
	s.Delete("x")
	s.Delete("y")
	// z promotes; cache now holds z (10000/20000).
	if _, err := s.Get("z"); err != nil {
		t.Fatal(err)
	}
	// Two more spilled payloads via a full watermark.
	if err := s.Put("w", payload(10_000, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("v", payload(10_000, 8)); err != nil {
		t.Fatal(err)
	}
	// w and v displaced nothing permanent; fetch both so whichever was
	// spilled gets promoted, evicting the least-recently-used hot copy.
	if _, err := s.Get("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("v"); err != nil {
		t.Fatal(err)
	}
	if got := s.MemBytes(); got > 20_000 {
		t.Fatalf("mem use %d exceeds watermark after promotions", got)
	}
	// Every payload still reads back correctly from cache or disk.
	for k, salt := range map[string]byte{"z": 2, "w": 9, "v": 8} {
		got, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(10_000, salt)) {
			t.Fatalf("payload %q corrupted", k)
		}
	}
}

func TestGetRange(t *testing.T) {
	for _, tc := range []struct {
		name     string
		limit    int64
		codec    Codec
		resident int // bytes of an earlier payload occupying the watermark
	}{
		{"memory", 0, nil, 0},
		{"spilled", SpillAll, nil, 0},
		{"spilled-codec", SpillAll, flateCodec{}, 0},
		// A positive watermark smaller than the payload: spilled and too
		// big to re-admit, so every chunk is a direct frame read.
		{"spilled-over-watermark", 10_000, nil, 0},
		// The payload would fit the cache but a primary payload holds the
		// watermark: no re-admission, no whole-frame read per chunk.
		{"spilled-no-headroom", 60_000, nil, 50_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(t.TempDir(), tc.limit, tc.codec)
			defer s.Close()
			if tc.resident > 0 {
				if err := s.Put("resident", payload(tc.resident, 6)); err != nil {
					t.Fatal(err)
				}
			}
			data := payload(50_000, 5)
			if err := s.Put("k", data); err != nil {
				t.Fatal(err)
			}
			// Whole payload via chunked reads.
			var got []byte
			for off := int64(0); ; {
				chunk, size, err := s.GetRange("k", off, 7_000)
				if err != nil {
					t.Fatal(err)
				}
				if size != 50_000 {
					t.Fatalf("size %d, want 50000", size)
				}
				got = append(got, chunk...)
				off += int64(len(chunk))
				if off >= size {
					break
				}
			}
			if !bytes.Equal(got, data) {
				t.Fatal("chunked reads disagree with payload")
			}
			if tc.limit != 0 && s.MemBytes() != int64(tc.resident) {
				t.Fatalf("%d bytes in memory after ranged reads of an un-cacheable frame, want %d", s.MemBytes(), tc.resident)
			}
			// Past-the-end reads return empty, not an error.
			chunk, size, err := s.GetRange("k", 50_000, 1_000)
			if err != nil || len(chunk) != 0 || size != 50_000 {
				t.Fatalf("past-end read = (%d bytes, %d, %v)", len(chunk), size, err)
			}
			// max <= 0 reads the rest.
			rest, _, err := s.GetRange("k", 49_000, 0)
			if err != nil || !bytes.Equal(rest, data[49_000:]) {
				t.Fatalf("rest read wrong: %d bytes, %v", len(rest), err)
			}
			if _, _, err := s.GetRange("k", -1, 10); err == nil {
				t.Fatal("negative offset should error")
			}
			if _, _, err := s.GetRange("missing", 0, 10); err == nil {
				t.Fatal("missing key should error")
			}
		})
	}
}

// TestPutKeepsTheBytesItIsHanded: an in-memory payload is the slice Put
// was given — no copy is made — and Get serves that same memory.
func TestPutKeepsTheBytesItIsHanded(t *testing.T) {
	s := NewStore(t.TempDir(), 0, nil)
	defer s.Close()
	data := payload(1<<20, 4)
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.Put("k", data); err != nil {
			t.Fatal(err)
		}
	})
	got, err := s.Get("k")
	if err != nil || &got[0] != &data[0] {
		t.Fatalf("Get served a copy of the payload (err %v)", err)
	}
	if allocs > 1 {
		t.Errorf("Put of a 1 MiB payload allocates %.0f times, want the payload kept as it is", allocs)
	}
}
