package kernels

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// scanMergeReference is the historical O(k·n) scan merge, kept here as
// the oracle the loser-tree merge must match bit for bit.
func scanMergeReference(runs [][]byte) []byte {
	var total int
	for _, r := range runs {
		total += len(r)
	}
	out := make([]byte, 0, total)
	offs := make([]int, len(runs))
	for len(out) < total {
		best := -1
		var bestKey []byte
		for i, r := range runs {
			if offs[i] >= len(r) {
				continue
			}
			key := r[offs[i] : offs[i]+SortKeyBytes]
			if best < 0 || bytes.Compare(key, bestKey) < 0 {
				best, bestKey = i, key
			}
		}
		out = append(out, runs[best][offs[best]:offs[best]+SortRecordBytes]...)
		offs[best] += SortRecordBytes
	}
	return out
}

// splitSortedRuns cuts a deterministic dataset into k individually
// sorted runs.
func splitSortedRuns(t *testing.T, seed uint64, records, k int) [][]byte {
	t.Helper()
	data := GenerateSortRecords(seed, records)
	per := (records + k - 1) / k
	var runs [][]byte
	for off := 0; off < len(data); off += per * SortRecordBytes {
		end := off + per*SortRecordBytes
		if end > len(data) {
			end = len(data)
		}
		run := append([]byte(nil), data[off:end]...)
		if err := SortRecords(run); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	return runs
}

func TestMergeSortedRunsMatchesScanReference(t *testing.T) {
	runs := splitSortedRuns(t, 2009, 997, 7)
	got, err := MergeSortedRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	want := scanMergeReference(runs)
	if !bytes.Equal(got, want) {
		t.Fatal("merge diverges from the scan-merge reference")
	}
	sorted, err := RecordsSorted(got)
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Fatal("merge output is not sorted")
	}
}

func TestMergeSortedStreamsOverReaders(t *testing.T) {
	runs := splitSortedRuns(t, 7, 500, 4)
	readers := make([]io.Reader, len(runs))
	for i, r := range runs {
		readers[i] = iotest.OneByteReader(bytes.NewReader(r))
	}
	var out bytes.Buffer
	n, err := MergeSortedStreams(&out, readers...)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(500*SortRecordBytes) {
		t.Fatalf("merged %d bytes, want %d", n, 500*SortRecordBytes)
	}
	want, err := MergeSortedRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("stream merge differs from buffer merge")
	}
}

func TestMergeSortedStreamsEmptyAndPartialRuns(t *testing.T) {
	run := GenerateSortRecords(3, 10)
	if err := SortRecords(run); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := MergeSortedStreams(&out, bytes.NewReader(nil), bytes.NewReader(run), bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(run)) || !bytes.Equal(out.Bytes(), run) {
		t.Fatal("merge with empty runs corrupted the output")
	}
}

func TestMergeSortedStreamsRejectsTornRecord(t *testing.T) {
	run := GenerateSortRecords(4, 3)
	if err := SortRecords(run); err != nil {
		t.Fatal(err)
	}
	torn := run[:len(run)-7]
	var out bytes.Buffer
	if _, err := MergeSortedStreams(&out, bytes.NewReader(torn)); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("torn run merged without ErrRecordSize: %v", err)
	}
}

func TestMergeSortedRunsRejectsBadRunLength(t *testing.T) {
	if _, err := MergeSortedRuns([][]byte{make([]byte, 150)}); !errors.Is(err, ErrRecordSize) {
		t.Fatalf("odd-length run accepted: %v", err)
	}
}

// sortedRun returns n sorted records whose keys come from setKey; each
// payload carries the run and record number, so a merge that takes
// equal keys in the wrong order shows in the bytes.
func sortedRun(t testing.TB, run, n int, setKey func(i int, key []byte)) []byte {
	t.Helper()
	buf := recordsWithKeys(n, setKey)
	for i := 0; i < n; i++ {
		buf[i*SortRecordBytes+SortKeyBytes+8] = byte(run)
	}
	sorted, err := SortedRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	return sorted
}

// checkMerge runs every entry point over runs and holds each to the
// scan-merge reference byte for byte: MergeSortedRuns in place, and
// MergeSortedStreams and MergeSortedInto with the streams read whole,
// one byte at a time, half a buffer at a time, or each run its own way
// (run i whole, one byte or half by i mod 3). A short read splits
// records across reads, as the edge of a remote piece's chunk does.
func checkMerge(t testing.TB, runs [][]byte) {
	t.Helper()
	want := scanMergeReference(runs)
	got, err := MergeSortedRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("MergeSortedRuns differs from the scan-merge reference")
	}
	ways := []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.OneByteReader, iotest.HalfReader}
	wraps := map[string]func(i int, r io.Reader) io.Reader{
		"whole":   func(_ int, r io.Reader) io.Reader { return r },
		"onebyte": func(_ int, r io.Reader) io.Reader { return iotest.OneByteReader(r) },
		"half":    func(_ int, r io.Reader) io.Reader { return iotest.HalfReader(r) },
		"mixed":   func(i int, r io.Reader) io.Reader { return ways[i%len(ways)](r) },
	}
	for name, wrap := range wraps {
		streams := func() []io.Reader {
			readers := make([]io.Reader, len(runs))
			for i, r := range runs {
				readers[i] = wrap(i, bytes.NewReader(r))
			}
			return readers
		}
		var out bytes.Buffer
		n, err := MergeSortedStreams(&out, streams()...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != int64(len(want)) || !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s: MergeSortedStreams differs from the scan-merge reference (%d bytes, want %d)", name, n, len(want))
		}
		into := make([]byte, len(want))
		if err := MergeSortedInto(into, streams()...); err != nil {
			t.Fatalf("%s: MergeSortedInto: %v", name, err)
		}
		if !bytes.Equal(into, want) {
			t.Fatalf("%s: MergeSortedInto differs from the scan-merge reference", name)
		}
	}
}

// TestMergeSortedIntoWantsTheExactSize: runs that hold more or fewer
// bytes than the output are an error, never a short or overrun output.
func TestMergeSortedIntoWantsTheExactSize(t *testing.T) {
	run := GenerateSortRecords(5, 20)
	if err := SortRecords(run); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{len(run) - SortRecordBytes, len(run) + SortRecordBytes, 0} {
		if err := MergeSortedInto(make([]byte, size), bytes.NewReader(run)); err == nil {
			t.Errorf("a %d-byte run merged into a %d-byte output", len(run), size)
		}
	}
	if err := MergeSortedInto(nil); err != nil {
		t.Errorf("no runs into no output: %v", err)
	}
}

func TestMergeSortedTable(t *testing.T) {
	random := func(run, n int) []byte {
		return sortedRun(t, run, n, func(i int, key []byte) {
			copy(key, GenerateSortRecords(uint64(run*1000+i), 1))
		})
	}
	equal := func(run, n int) []byte {
		return sortedRun(t, run, n, func(_ int, key []byte) { copy(key, "kkkkkkkkkk") })
	}
	// Keys tied in bytes 0–7 that differ only in bytes 8–9.
	tail := func(run, n int) []byte {
		return sortedRun(t, run, n, func(i int, key []byte) {
			copy(key, "tttttttt")
			key[8], key[9] = "ab"[(i+run)%2], "xyz"[(i*7+run)%3]
		})
	}
	many := func(k int, each func(i int) []byte) [][]byte {
		runs := make([][]byte, k)
		for i := range runs {
			runs[i] = each(i)
		}
		return runs
	}
	cases := []struct {
		name string
		runs [][]byte
	}{
		{"k=0", nil},
		{"k=1", [][]byte{random(0, 50)}},
		{"k=1 empty", [][]byte{{}}},
		{"k=2 leading empty", [][]byte{nil, random(1, 30)}},
		{"k=3 trailing empty", [][]byte{random(0, 40), random(1, 20), nil}},
		{"k=3 all empty", [][]byte{nil, {}, nil}},
		{"k=8", many(8, func(i int) []byte { return random(i, 20+i*13) })},
		{"k=64 some empty", many(64, func(i int) []byte {
			if i%5 == 0 {
				return nil
			}
			return random(i, i%17)
		})},
		{"all equal keys", many(5, func(i int) []byte { return equal(i, 30+i) })},
		{"ties in bytes 0-7", many(4, func(i int) []byte { return tail(i, 90) })},
		{"161 and 321 records", [][]byte{random(0, 161), tail(1, 321), random(2, 160), equal(3, 321), random(4, 1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkMerge(t, c.runs) })
	}
}

// failAfter is a writer that accepts ok writes and then fails, counting
// every call.
type failAfter struct {
	ok, calls int
	got       bytes.Buffer
}

var errMergeTest = errors.New("merge test failure")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errMergeTest
	}
	return w.got.Write(p)
}

func TestMergeSortedStreamsErrorsAcrossWindows(t *testing.T) {
	random := func(run, n int) []byte {
		return sortedRun(t, run, n, func(i int, key []byte) {
			copy(key, GenerateSortRecords(uint64(run*1000+i), 1))
		})
	}
	window := mergeWindow
	a, b := random(0, 400), random(1, 400)

	t.Run("torn tail after a window", func(t *testing.T) {
		torn := b[:window+50]
		_, err := MergeSortedStreams(io.Discard, bytes.NewReader(a), bytes.NewReader(torn))
		if !errors.Is(err, ErrRecordSize) || !strings.Contains(err.Error(), "run 1 ") {
			t.Fatalf("torn run 1 gave %v, want ErrRecordSize naming run 1", err)
		}
	})

	t.Run("reader fails after its first window", func(t *testing.T) {
		failing := io.MultiReader(bytes.NewReader(b[:window]), iotest.ErrReader(errMergeTest))
		var out bytes.Buffer
		n, err := MergeSortedStreams(&out, bytes.NewReader(a), failing)
		if !errors.Is(err, errMergeTest) {
			t.Fatalf("got %v, want the reader's error", err)
		}
		if n != int64(out.Len()) {
			t.Fatalf("reported %d bytes written, w received %d", n, out.Len())
		}
	})

	for ok := 0; ok < 3; ok++ {
		t.Run(fmt.Sprintf("writer fails after %d writes", ok), func(t *testing.T) {
			w := &failAfter{ok: ok}
			n, err := MergeSortedStreams(w, bytes.NewReader(a), bytes.NewReader(b))
			if !errors.Is(err, errMergeTest) {
				t.Fatalf("got %v, want the writer's error", err)
			}
			if w.calls != ok+1 {
				t.Fatalf("merge wrote %d times after the failure", w.calls-ok-1)
			}
			if n != int64(w.got.Len()) || n != int64(ok*window) {
				t.Fatalf("reported %d bytes written, w accepted %d", n, w.got.Len())
			}
		})
	}
}

// FuzzMergeSorted carves the input into up to 16 runs: three bytes make
// one record, the first picking its run and key bytes 8–9, the second
// key bytes 0–7 from a two-letter alphabet (so ties in the packed
// high word are common), the third the rest of bytes 8–9. checkMerge
// reads the runs through every stream shape, short reads included.
func FuzzMergeSorted(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add(bytes.Repeat([]byte{0x13, 0x00, 0x07, 0x21, 0xff, 0x02}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkMerge(t, nil)
			return
		}
		k := int(data[0])%16 + 1
		recs := data[1:]
		n := len(recs) / 3
		if n > 1200 {
			n = 1200
		}
		keys := make([][][SortKeyBytes]byte, k)
		for i := 0; i < n; i++ {
			b0, b1, b2 := recs[3*i], recs[3*i+1], recs[3*i+2]
			var key [SortKeyBytes]byte
			for j := 0; j < 8; j++ {
				key[j] = "ab"[b1>>j&1]
			}
			key[8], key[9] = "acgt"[b0>>4&3], "acgt"[b2&3]
			run := int(b0&15) % k
			keys[run] = append(keys[run], key)
		}
		runs := make([][]byte, k)
		for r, ks := range keys {
			runs[r] = sortedRun(t, r, len(ks), func(i int, key []byte) { copy(key, ks[i][:]) })
		}
		checkMerge(t, runs)
	})
}
