package kernels

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// sortedRecordsReference is the comparison sort SortedRecords replaced:
// a stable sort of record indices by key, then a gather. It is the
// oracle every radix-sort test checks against.
func sortedRecordsReference(src []byte) []byte {
	n := len(src) / SortRecordBytes
	key := func(i int) []byte { return src[i*SortRecordBytes : i*SortRecordBytes+SortKeyBytes] }
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bytes.Compare(key(idx[a]), key(idx[b])) < 0 })
	out := make([]byte, len(src))
	for to, from := range idx {
		copy(out[to*SortRecordBytes:], src[from*SortRecordBytes:(from+1)*SortRecordBytes])
	}
	return out
}

// recordsWithKeys builds n records whose payloads are all distinct (so
// any reordering of equal keys shows) and whose keys setKey fills in.
func recordsWithKeys(n int, setKey func(i int, key []byte)) []byte {
	buf := GenerateSortRecords(uint64(n)+1, n)
	for i := 0; i < n; i++ {
		rec := buf[i*SortRecordBytes : (i+1)*SortRecordBytes]
		binary.BigEndian.PutUint64(rec[SortKeyBytes:], uint64(i))
		setKey(i, rec[:SortKeyBytes])
	}
	return buf
}

// checkAgainstReference sorts src both ways and fails on any byte of
// difference, or if SortedRecords wrote to src.
func checkAgainstReference(t *testing.T, src []byte) {
	t.Helper()
	orig := append([]byte(nil), src...)
	got, err := SortedRecords(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("SortedRecords modified its input")
	}
	if want := sortedRecordsReference(src); !bytes.Equal(got, want) {
		t.Fatalf("radix sort of %d records differs from the stable comparison sort", len(src)/SortRecordBytes)
	}
}

func TestSortedRecordsMatchesStableReference(t *testing.T) {
	rng := piRNG{state: 77}
	cases := []struct {
		name   string
		n      int
		setKey func(i int, key []byte)
	}{
		{"empty", 0, nil},
		{"one", 1, nil},
		{"two-descending", 2, func(i int, k []byte) { k[0] = byte(1 - i) }},
		{"two-equal", 2, func(_ int, k []byte) { copy(k, "samesamesa") }},
		{"all-equal", 300, func(_ int, k []byte) { copy(k, "0123456789") }},
		{"equal-prefix-differ-in-8-9", 300, func(i int, k []byte) {
			copy(k, "prefix!!")
			k[8], k[9] = byte(rng.next()%3), byte(rng.next()%3)
		}},
		{"equal-8-9-differ-earlier", 300, func(i int, k []byte) {
			binary.BigEndian.PutUint64(k, rng.next()%5<<56|rng.next()%4)
			k[8], k[9] = 0xab, 0xcd
		}},
		{"constant-column", 300, func(i int, k []byte) {
			binary.BigEndian.PutUint64(k, rng.next())
			k[3], k[9] = 0x42, byte(rng.next()%4)
		}},
		{"random", 2000, func(int, []byte) {}},
		{"random-40000", 40_000, func(int, []byte) {}},
		// One bucket, then the records around it, at the insertion
		// sort's limit and one past it, with ties among the rest of
		// the key. Records in one bucket share their top 12 key bits.
		{"bucket-at-insertion-max", insertionMax + 40, func(i int, k []byte) {
			if i < insertionMax {
				k[0], k[1], k[2] = 0x5a, 0x30|byte(rng.next()%16), byte(rng.next()%8)
			} else if k[0] == 0x5a {
				k[0] = 0x5b
			}
		}},
		{"bucket-past-insertion-max", insertionMax + 41, func(i int, k []byte) {
			if i <= insertionMax {
				k[0], k[1], k[2] = 0x5a, 0x30|byte(rng.next()%16), byte(rng.next()%8)
			} else if k[0] == 0x5a {
				k[0] = 0x5b
			}
		}},
		{"all-in-one-bucket", 3000, func(i int, k []byte) {
			k[0], k[1] = 0xc3, 0x70|byte(rng.next()%16)
			for j := 2; j < SortKeyBytes; j++ {
				k[j] = byte(rng.next() % 3) // shared prefixes of every length
			}
		}},
		// Keys that agree on their top bits bucket on the bits below the
		// prefix: 20 shared bits, then 70, then a handful of whole keys.
		{"shared-prefix-20-bits", 5000, func(i int, k []byte) {
			k[0], k[1], k[2] = 0x9e, 0x37, k[2]&0x0f|0x70
		}},
		{"shared-prefix-70-bits", 3000, func(i int, k []byte) {
			copy(k, "prefix!!")
			k[8] = 0x40 | k[8]&3
		}},
		{"few-distinct-keys", 3000, func(i int, k []byte) {
			copy(k, [3]string{"0123456789", "0123456788", "9123456789"}[rng.next()%3])
		}},
		{"every-bucket", 3 << sortBucketBits, func(i int, k []byte) {
			b := uint16(1<<sortBucketBits - 1 - i%(1<<sortBucketBits)) // descending, three rounds
			binary.BigEndian.PutUint16(k, b<<(16-sortBucketBits)|uint16(rng.next()%16))
			k[2] = byte(rng.next() % 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setKey := tc.setKey
			if setKey == nil {
				setKey = func(int, []byte) {}
			}
			checkAgainstReference(t, recordsWithKeys(tc.n, setKey))
		})
	}
}

// FuzzSortedRecords turns the fuzz input into records whose key bytes
// come from a four-letter alphabet, so ties and shared prefixes are the
// norm, and checks the sort against the stable comparison sort. The
// alphabet puts the keys in a few buckets, which takes the radix
// passes; a second shape spreads the same keys' top 12 bits over 64
// buckets of a few records each, which takes the insertion sort.
func FuzzSortedRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("shared prefixes and duplicate keys, byte for byte"))
	// Keys from bits 0-19 of each little-endian word: words that differ
	// only in bits 16-19 share a 64-bit prefix, and three words are
	// three distinct keys.
	var shared, few []byte
	for i := range 64 {
		shared = binary.LittleEndian.AppendUint32(shared, uint32(i%16)<<16|0x5555)
		few = binary.LittleEndian.AppendUint32(few, [3]uint32{0x12345, 0xfedcb, 0x12344}[i%3])
	}
	f.Add(shared)
	f.Add(few)
	f.Fuzz(func(t *testing.T, data []byte) {
		alphabet := [4]byte{0x00, 0x01, 0x80, 0xff}
		n := len(data) / 4
		if n > 512 {
			n = 512
		}
		key := func(i int, k []byte) uint32 {
			w := binary.LittleEndian.Uint32(data[4*i:])
			for j := range k {
				k[j] = alphabet[w>>(2*j)&3]
			}
			return w
		}
		checkAgainstReference(t, recordsWithKeys(n, func(i int, k []byte) { key(i, k) }))
		checkAgainstReference(t, recordsWithKeys(n, func(i int, k []byte) {
			w := key(i, k)
			binary.BigEndian.PutUint16(k, uint16(w>>20&63)<<10|binary.BigEndian.Uint16(k)&0x0f)
		}))
	})
}

// TestSortedRecordsAllocatesOnlyItsOutput: on keys spread over the
// leading bits, the sort's one allocation is the run it returns.
func TestSortedRecordsAllocatesOnlyItsOutput(t *testing.T) {
	src := GenerateSortRecords(41, 4<<20/SortRecordBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SortedRecords(src); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs != 1 {
		t.Errorf("SortedRecords of a random 4 MB block made %v allocations, want 1", allocs)
	}
	// AllocsPerRun makes one warm-up call besides its five runs; a
	// large object is rounded up to whole 8 KiB pages.
	if per := (after.TotalAlloc - before.TotalAlloc) / 6; per > uint64(len(src))+8<<10 {
		t.Errorf("SortedRecords of a %d-byte block allocated %d bytes a call", len(src), per)
	}
}

func TestGenerateSortRecords(t *testing.T) {
	a := GenerateSortRecords(1, 100)
	if len(a) != 100*SortRecordBytes {
		t.Fatalf("generated %d bytes", len(a))
	}
	b := GenerateSortRecords(1, 100)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different records")
	}
	c := GenerateSortRecords(2, 100)
	if bytes.Equal(a, c) {
		t.Error("different seeds coincided")
	}
}

func TestSortRecords(t *testing.T) {
	buf := GenerateSortRecords(42, 500)
	if err := SortRecords(buf); err != nil {
		t.Fatal(err)
	}
	sorted, err := RecordsSorted(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Fatal("records not sorted")
	}
}

func TestSortRecordsPreservesMultiset(t *testing.T) {
	buf := GenerateSortRecords(7, 200)
	// Count payload checksums before/after.
	sum := func(b []byte) map[[SortRecordBytes]byte]int {
		m := make(map[[SortRecordBytes]byte]int)
		for i := 0; i < len(b); i += SortRecordBytes {
			var rec [SortRecordBytes]byte
			copy(rec[:], b[i:])
			m[rec]++
		}
		return m
	}
	before := sum(buf)
	if err := SortRecords(buf); err != nil {
		t.Fatal(err)
	}
	after := sum(buf)
	if len(before) != len(after) {
		t.Fatal("record multiset changed size")
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatal("record multiset changed")
		}
	}
}

func TestSortBadSize(t *testing.T) {
	if err := SortRecords(make([]byte, 150)); !errors.Is(err, ErrRecordSize) {
		t.Errorf("got %v", err)
	}
	if _, err := SortedRecords(make([]byte, 50)); !errors.Is(err, ErrRecordSize) {
		t.Errorf("got %v", err)
	}
	if _, err := RecordsSorted(make([]byte, 99)); !errors.Is(err, ErrRecordSize) {
		t.Errorf("got %v", err)
	}
	if _, err := MergeSortedRuns([][]byte{make([]byte, 10)}); !errors.Is(err, ErrRecordSize) {
		t.Errorf("got %v", err)
	}
}

func TestMergeSortedRuns(t *testing.T) {
	// Split one generated set into 4 runs, sort each, merge, compare
	// to sorting the whole thing.
	whole := GenerateSortRecords(9, 400)
	want := append([]byte(nil), whole...)
	if err := SortRecords(want); err != nil {
		t.Fatal(err)
	}
	var runs [][]byte
	per := len(whole) / 4
	for i := 0; i < 4; i++ {
		run := append([]byte(nil), whole[i*per:(i+1)*per]...)
		if err := SortRecords(run); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	got, err := MergeSortedRuns(runs)
	if err != nil {
		t.Fatal(err)
	}
	// Stable run sorts merged with ties to the lower run are the stable
	// sort of the whole input, byte for byte.
	if !bytes.Equal(got, want) {
		t.Fatal("merge of sorted runs differs from sorting the whole input")
	}
}

// Property: sorting is idempotent and the distributed map-sort +
// reduce-merge pipeline yields sorted output for any partitioning.
func TestMergePipelineProperty(t *testing.T) {
	f := func(seed uint64, partsRaw uint8) bool {
		parts := int(partsRaw)%6 + 1
		whole := GenerateSortRecords(seed, 60)
		per := 60 / parts * SortRecordBytes
		var runs [][]byte
		off := 0
		for i := 0; i < parts-1; i++ {
			run := append([]byte(nil), whole[off:off+per]...)
			if SortRecords(run) != nil {
				return false
			}
			runs = append(runs, run)
			off += per
		}
		last := append([]byte(nil), whole[off:]...)
		if SortRecords(last) != nil {
			return false
		}
		runs = append(runs, last)
		merged, err := MergeSortedRuns(runs)
		if err != nil || len(merged) != len(whole) {
			return false
		}
		ok, err := RecordsSorted(merged)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
