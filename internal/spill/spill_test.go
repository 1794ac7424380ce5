package spill

import (
	"bytes"
	"fmt"
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
	s := NewStore(t.TempDir(), 0)
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
	s := NewStore(dir, 25_000)
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
	s := NewStore(t.TempDir(), SpillAll)
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

func TestPutReplacesAndDeleteFrees(t *testing.T) {
	s := NewStore(t.TempDir(), 0)
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
	s := NewStore(base, SpillAll)
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

func TestGetRange(t *testing.T) {
	for _, tc := range []struct {
		name     string
		limit    int64
		resident int // bytes of an earlier payload occupying the watermark
	}{
		{"memory", 0, 0},
		{"spilled", SpillAll, 0},
		// A positive watermark smaller than the payload: spilled, and
		// every chunk is a read at its offset in the frame.
		{"spilled-over-watermark", 10_000, 0},
		// The payload would fit the watermark but a resident payload
		// holds it: spilled, and reading it leaves MemBytes at the
		// resident's size.
		{"spilled-no-headroom", 60_000, 50_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(t.TempDir(), tc.limit)
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
				t.Fatalf("%d bytes in memory after ranged reads of a spilled frame, want %d", s.MemBytes(), tc.resident)
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
	s := NewStore(t.TempDir(), 0)
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

// TestReadsDoNotChangeResidentBytes: a spilled payload stays in its
// file when it is read, even with headroom under the watermark. Get,
// Open and GetRange all return its exact bytes and leave MemBytes as
// it was.
func TestReadsDoNotChangeResidentBytes(t *testing.T) {
	s := NewStore(t.TempDir(), 25_000)
	defer s.Close()
	// a, b fill the watermark; c spills. Deleting a leaves headroom
	// c would fit in.
	for i, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("a")
	want := payload(10_000, 2)
	reads := map[string]func() ([]byte, error){
		"Get": func() ([]byte, error) { return s.Get("c") },
		"Open": func() ([]byte, error) {
			r, err := s.Open("c")
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return io.ReadAll(r)
		},
		"GetRange": func() ([]byte, error) {
			data, _, err := s.GetRange("c", 0, 0)
			return data, err
		},
	}
	for name, read := range reads {
		got, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s returned the wrong bytes", name)
		}
		if m := s.MemBytes(); m != 10_000 {
			t.Fatalf("MemBytes %d after %s of a spilled payload, want 10000", m, name)
		}
	}
}

// TestFailedSpillWriteLeavesNoFrame: a frame whose write fails is
// removed at once, not left on disk until Close, and the store keeps
// no entry for it.
func TestFailedSpillWriteLeavesNoFrame(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write on")
	}
	s := NewStore(t.TempDir(), SpillAll)
	defer s.Close()
	if err := s.Put("a", payload(1_000, 1)); err != nil {
		t.Fatal(err)
	}
	next := filepath.Join(s.dir, fmt.Sprintf("f%06d", s.seq+1))
	if err := os.Symlink("/dev/full", next); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", payload(1_000, 2)); err == nil {
		t.Fatal("Put onto a full device succeeded")
	}
	if _, err := os.Lstat(next); !os.IsNotExist(err) {
		t.Fatalf("failed frame %s left on disk (%v)", next, err)
	}
	if _, err := s.Size("b"); err == nil || s.Len() != 1 {
		t.Fatalf("store kept an entry for the failed Put (%d entries)", s.Len())
	}
}

// FuzzStore drives a store with random Put, Delete, Get, Open and
// GetRange sequences under a watermark of 0, SpillAll or a small
// positive value, and holds it to a map: every read returns the last
// bytes put, MemBytes never exceeds a positive watermark, a read
// leaves MemBytes as it was, and Close removes the spill directory.
// Each op is three bytes: op, key, argument.
func FuzzStore(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 40, 2, 0, 0, 4, 0, 7})
	f.Add(byte(1), []byte{0, 0, 40, 0, 1, 0, 3, 1, 0, 1, 0, 0, 2, 0, 0})
	f.Add(byte(2), []byte{0, 0, 60, 0, 1, 60, 0, 2, 30, 4, 1, 33, 1, 0, 0, 3, 1, 0, 0, 1, 96})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		limit := [...]int64{0, SpillAll, 100}[mode%3]
		base := t.TempDir()
		s := NewStore(base, limit)
		want := map[string][]byte{}
		for i := 0; i+3 <= len(ops); i += 3 {
			op, key, arg := ops[i]%5, string(rune('a'+ops[i+1]%4)), ops[i+2]
			if op == 0 {
				data := payload(int(arg)%97, byte(i))
				want[key] = bytes.Clone(data)
				if err := s.Put(key, data); err != nil {
					t.Fatal(err)
				}
				if m := s.MemBytes(); limit > 0 && m > limit {
					t.Fatalf("MemBytes %d over the %d watermark", m, limit)
				}
				continue
			}
			if op == 1 {
				s.Delete(key)
				delete(want, key)
				continue
			}
			exp, ok := want[key]
			mem := s.MemBytes()
			var got []byte
			var err error
			switch op {
			case 2:
				got, err = s.Get(key)
			case 3:
				var r io.ReadCloser
				if r, err = s.Open(key); err == nil {
					got, err = io.ReadAll(r)
					r.Close()
				}
			case 4:
				off, max := int64(arg%128), int64(arg/32)*8
				var size int64
				got, size, err = s.GetRange(key, off, max)
				if ok {
					if size != int64(len(exp)) {
						t.Fatalf("GetRange(%q) size %d, want %d", key, size, len(exp))
					}
					lo := min(off, size)
					hi := size
					if max > 0 {
						hi = min(hi, lo+max)
					}
					exp = exp[lo:hi]
				}
			}
			if ok != (err == nil) {
				t.Fatalf("op %d on %q: err %v, stored %v", op, key, err, ok)
			}
			if ok && !bytes.Equal(got, exp) {
				t.Fatalf("op %d on %q returned %d bytes, want the %d put", op, key, len(got), len(exp))
			}
			if m := s.MemBytes(); m != mem {
				t.Fatalf("op %d on %q moved MemBytes %d -> %d", op, key, mem, m)
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("store holds %d payloads, want %d", s.Len(), len(want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if left, err := os.ReadDir(base); err != nil || len(left) != 0 {
			t.Fatalf("Close left %d entries in the base dir (%v)", len(left), err)
		}
	})
}
