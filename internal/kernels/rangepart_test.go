package kernels

import (
	"bytes"
	"io"
	"sort"
	"testing"
)

func TestRangePartitionerMonotone(t *testing.T) {
	splits := [][]byte{[]byte("ccc"), []byte("mmm"), []byte("ttt")}
	p := NewRangePartitioner(splits)
	if p.Parts() != 4 {
		t.Fatalf("Parts = %d, want 4", p.Parts())
	}
	cases := []struct {
		key  string
		want int
	}{
		{"", 0}, {"aaa", 0}, {"cc", 0},
		{"ccc", 1}, {"ccd", 1}, {"mml", 1},
		{"mmm", 2}, {"sss", 2},
		{"ttt", 3}, {"zzz", 3},
	}
	for _, c := range cases {
		if got := p.Index([]byte(c.key)); got != c.want {
			t.Errorf("Index(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	// Monotone: sorted keys never route to a lower partition.
	keys := []string{"", "a", "ccc", "ccc", "d", "mmm", "q", "ttt", "zz"}
	last := 0
	for _, k := range keys {
		got := p.Index([]byte(k))
		if got < last {
			t.Fatalf("Index(%q) = %d went below previous %d", k, got, last)
		}
		last = got
	}
}

func TestRangePartitionerUnsortedSplitsAreSorted(t *testing.T) {
	p := NewRangePartitioner([][]byte{[]byte("m"), []byte("c")})
	if got := p.Index([]byte("a")); got != 0 {
		t.Fatalf("Index(a) = %d, want 0", got)
	}
	if got := p.Index([]byte("f")); got != 1 {
		t.Fatalf("Index(f) = %d, want 1", got)
	}
	if got := p.Index([]byte("z")); got != 2 {
		t.Fatalf("Index(z) = %d, want 2", got)
	}
}

// Heavily duplicated sample keys must yield a valid partitioner with
// empty ranges, never a panic or an out-of-range index.
func TestRangePartitionerDuplicateSampleKeys(t *testing.T) {
	sample := make([][]byte, 100)
	for i := range sample {
		sample[i] = []byte("same-key") // every sample identical
	}
	splits := SplitKeysFromSample(sample, 8)
	if len(splits) != 7 {
		t.Fatalf("got %d splits, want 7", len(splits))
	}
	p := NewRangePartitioner(splits)
	if got := p.Index([]byte("aaaa")); got != 0 {
		t.Errorf("below-range key routed to %d, want 0", got)
	}
	// The duplicated key itself lands past every equal split.
	if got := p.Index([]byte("same-key")); got != 7 {
		t.Errorf("duplicated key routed to %d, want 7", got)
	}
	if got := p.Index([]byte("zzzz")); got != 7 {
		t.Errorf("above-range key routed to %d, want 7", got)
	}
}

// Skewed input: most ranges are empty, but every record still routes
// in [0, parts) and the covered partitions stay in key order.
func TestRangePartitionerSkewEmptyRanges(t *testing.T) {
	var sample [][]byte
	for i := 0; i < 95; i++ {
		sample = append(sample, []byte{0x10}) // 95% of mass on one key
	}
	for i := 0; i < 5; i++ {
		sample = append(sample, []byte{0xf0, byte(i)})
	}
	parts := 10
	p := NewRangePartitioner(SplitKeysFromSample(sample, parts))
	counts := make([]int, parts)
	for b := 0; b < 256; b++ {
		idx := p.Index([]byte{byte(b)})
		if idx < 0 || idx >= parts {
			t.Fatalf("Index(%#x) = %d out of range", b, idx)
		}
		counts[idx]++
	}
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected empty ranges under 95%% key skew, counts = %v", counts)
	}
}

// 1-reducer degenerate case: no splits, everything routes to 0.
func TestRangePartitionerSingleReducer(t *testing.T) {
	if got := SplitKeysFromSample([][]byte{[]byte("a"), []byte("b")}, 1); got != nil {
		t.Fatalf("SplitKeysFromSample(parts=1) = %v, want nil", got)
	}
	p := NewRangePartitioner(nil)
	if p.Parts() != 1 {
		t.Fatalf("Parts = %d, want 1", p.Parts())
	}
	for _, k := range []string{"", "a", "zzz"} {
		if got := p.Index([]byte(k)); got != 0 {
			t.Fatalf("Index(%q) = %d, want 0", k, got)
		}
	}
}

// TestCutMatchesIndexRouting pins Cut to Index: cutting a sorted run
// must give each partition exactly the records Index routes there, in
// run order, as capped slices, with nil for an empty partition.
func TestCutMatchesIndexRouting(t *testing.T) {
	rng := piRNG{state: 5}
	alphabet := []byte{0x00, 0x40, 0x41, 0xff}
	data := recordsWithKeys(400, func(_ int, k []byte) {
		for j := range k {
			k[j] = alphabet[rng.next()%uint64(len(alphabet))]
		}
	})
	run, err := SortedRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	exact := append([]byte(nil), run[200*SortRecordBytes:200*SortRecordBytes+SortKeyBytes]...)
	splitSets := map[string][][]byte{
		"none":              nil,
		"duplicates":        {{0x40}, {0x40}, {0x40}},
		"equal-to-a-key":    {exact, exact},
		"shorter-than-key":  {{0x00, 0x40}, {0x41}, {0x41, 0xff, 0x00}},
		"longer-than-key":   {append(bytes.Repeat([]byte{0x40}, 10), 0x00, 0x01), append(bytes.Repeat([]byte{0x41}, 10), 0xff)},
		"all-below":         {{}, {}},
		"all-above":         {bytes.Repeat([]byte{0xff}, 11)},
		"interleaved-empty": {{0x00}, {0x00, 0x00, 0x01}, {0x41, 0x00}, {0x41, 0x00}, {0xff, 0xff, 0xff}},
	}
	for name, splits := range splitSets {
		t.Run(name, func(t *testing.T) {
			p := NewRangePartitioner(splits)
			want := make([][]byte, p.Parts())
			for off := 0; off < len(run); off += SortRecordBytes {
				i := p.Index(run[off : off+SortKeyBytes])
				want[i] = append(want[i], run[off:off+SortRecordBytes]...)
			}
			got := p.Cut(run)
			if len(got) != p.Parts() {
				t.Fatalf("Cut returned %d partitions, want %d", len(got), p.Parts())
			}
			for i := range got {
				if (got[i] == nil) != (want[i] == nil) || !bytes.Equal(got[i], want[i]) {
					t.Fatalf("partition %d: %d bytes (nil %v), want %d (nil %v)",
						i, len(got[i]), got[i] == nil, len(want[i]), want[i] == nil)
				}
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("partition %d has cap %d > len %d: an append would bleed into the next", i, cap(got[i]), len(got[i]))
				}
			}
		})
	}
	if got := NewRangePartitioner([][]byte{{0x40}}).Cut(nil); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("Cut of an empty run = %v, want two nil partitions", got)
	}
}

func TestSplitKeysFromSampleSmallSample(t *testing.T) {
	if got := SplitKeysFromSample(nil, 4); got != nil {
		t.Fatalf("empty sample: got %v, want nil", got)
	}
	// Sample smaller than parts: still parts-1 splits (duplicated).
	splits := SplitKeysFromSample([][]byte{[]byte("k")}, 4)
	if len(splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(splits))
	}
	for _, s := range splits {
		if !bytes.Equal(s, []byte("k")) {
			t.Fatalf("split %q, want %q", s, "k")
		}
	}
}

func TestRecordKeySamplerPassThroughAndDeterminism(t *testing.T) {
	data := GenerateSortRecords(7, 5000)
	read := func(chunk int) ([]byte, [][]byte) {
		s := NewRecordKeySampler(bytes.NewReader(data), 64, 42)
		var out bytes.Buffer
		if _, err := io.CopyBuffer(&out, onlyReader{s}, make([]byte, chunk)); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), s.Keys()
	}
	got1, keys1 := read(333) // chunk size not a record multiple
	got2, keys2 := read(4096)
	if !bytes.Equal(got1, data) || !bytes.Equal(got2, data) {
		t.Fatal("sampler altered the pass-through stream")
	}
	if len(keys1) != 64 || len(keys2) != 64 {
		t.Fatalf("reservoir sizes %d, %d; want 64", len(keys1), len(keys2))
	}
	// Deterministic and chunking-independent: same stream + seed ->
	// same reservoir regardless of read sizes.
	for i := range keys1 {
		if !bytes.Equal(keys1[i], keys2[i]) {
			t.Fatalf("reservoir differs at %d under different chunk sizes", i)
		}
	}
	// Every sampled key must be a real record key from the stream.
	keySet := make(map[string]bool)
	for off := 0; off+SortRecordBytes <= len(data); off += SortRecordBytes {
		keySet[string(data[off:off+SortKeyBytes])] = true
	}
	for _, k := range keys1 {
		if !keySet[string(k)] {
			t.Fatalf("sampled key %x not present in stream", k)
		}
	}
}

// onlyReader hides any other methods so io.CopyBuffer actually uses
// the provided buffer and exercises arbitrary chunk boundaries.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestSamplerSplitKeysBalance(t *testing.T) {
	data := GenerateSortRecords(99, 20000)
	s := NewRecordKeySampler(bytes.NewReader(data), 1000, 7)
	if _, err := io.Copy(io.Discard, onlyReader{s}); err != nil {
		t.Fatal(err)
	}
	parts := 8
	p := NewRangePartitioner(s.SplitKeys(parts))
	counts := make([]int, parts)
	for off := 0; off+SortRecordBytes <= len(data); off += SortRecordBytes {
		counts[p.Index(data[off:off+SortKeyBytes])]++
	}
	total := 20000
	want := total / parts
	for i, c := range counts {
		// Uniform keys + a 1000-key sample: each range should hold
		// roughly 1/parts of the records; 2x slack absorbs sampling noise.
		if c < want/2 || c > want*2 {
			t.Fatalf("partition %d holds %d records, want ~%d; counts=%v", i, c, want, counts)
		}
	}
	if !sort.SliceIsSorted(s.SplitKeys(parts), func(a, b int) bool {
		sk := s.SplitKeys(parts)
		return bytes.Compare(sk[a], sk[b]) < 0
	}) {
		t.Fatal("split keys not sorted")
	}
}
