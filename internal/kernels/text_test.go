package kernels

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hetmr/internal/testutil"
)

// referenceWordCount is the map-based counter WordTable replaced: a
// byte-at-a-time scan that allocates a string for every occurrence. It
// stays as the oracle the table is checked against.
func referenceWordCount(data []byte) map[string]int64 {
	isWordByte := func(b byte) bool {
		return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
	}
	counts := make(map[string]int64)
	start := -1
	for i := 0; i <= len(data); i++ {
		inWord := i < len(data) && isWordByte(data[i])
		switch {
		case inWord && start < 0:
			start = i
		case !inWord && start >= 0:
			counts[string(bytes.ToLower(data[start:i]))]++
			start = -1
		}
	}
	return counts
}

// tableCounts drains a WordTable into a map, failing on a word Each
// reports twice.
func tableCounts(t *testing.T, tab *WordTable) map[string]int64 {
	t.Helper()
	got := make(map[string]int64)
	tab.Each(func(w string, n int64) {
		if _, dup := got[w]; dup {
			t.Errorf("Each reported %q twice", w)
		}
		got[w] = n
	})
	return got
}

func TestWordCountBasic(t *testing.T) {
	got := WordCount([]byte("the cat and The DOG and the bird"))
	want := map[string]int64{"the": 3, "cat": 1, "and": 2, "dog": 1, "bird": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WordCount = %v, want %v", got, want)
	}
}

func TestWordCountEmptyAndPunctuation(t *testing.T) {
	if got := WordCount(nil); len(got) != 0 {
		t.Errorf("WordCount(nil) = %v", got)
	}
	if got := WordCount([]byte("...!!!  ,,,")); len(got) != 0 {
		t.Errorf("punctuation only = %v", got)
	}
	got := WordCount([]byte("a1b2!c3"))
	want := map[string]int64{"a1b2": 1, "c3": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestWordsLongWord(t *testing.T) {
	long := strings.Repeat("X", 100)
	var tab WordTable
	tab.Add([]byte("a " + long + " b " + long))
	want := map[string]int64{"a": 1, strings.ToLower(long): 2, "b": 1}
	if got := tableCounts(t, &tab); !reflect.DeepEqual(got, want) {
		t.Errorf("long word handling wrong: %v", got)
	}
}

// TestWordTableMatchesReference runs the table over inputs chosen for
// its edges — the byte classes, word lengths, a word the text ends in
// and enough distinct words to grow the slots several times — adding
// each text whole, in separator-aligned 4 KB pieces (the SPE path's
// carving), and as per-piece tables merged together.
func TestWordTableMatchesReference(t *testing.T) {
	var many strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&many, "w%d ", i%7_000)
	}
	high := []byte("caf\xe9 na\xefve \x80\xff word\x7fend")
	type row struct {
		name string
		text []byte
	}
	rows := []row{
		{"empty", nil},
		{"separators only", []byte(" \t\n.,;!?-\x00\x80\xff  ")},
		{"mixed case", []byte("Hello HELLO hello hElLo World")},
		{"digits", []byte("route 66 and 007 r2d2 2009")},
		{"bytes >= 0x80 separate", high},
		{"word over 64 bytes", []byte("x " + strings.Repeat("Ab9", 50) + " y " + strings.Repeat("ab9", 50))},
		{"trailing word", []byte("no separator at the END")},
		{"growth", []byte(many.String())},
		{"4 KB pieces", bytes.Repeat([]byte("Lorem ipsum dolor sit amet, consectetur 2009.\n"), 400)},
		{"words across 64-byte chunk edges", []byte(strings.Repeat(".", 60) + "CrossesAnEdge " + strings.Repeat("x", 50) + "Y" + strings.Repeat("Z9", 70) + " tail")},
		{"every byte between word bytes", everyByteText()},
		{"same last eight bytes", []byte("a12345678 b12345678 A12345678 12345678 x12345678 aaaaaaaaa aaaaaaaaaa aaaaaaaa")},
		{"same first and last eight bytes", []byte("abcdefgh1ijklmnop abcdefgh2ijklmnop ABCDEFGH1IJKLMNOP abcdefghijklmnop abcdefgh12ijklmnop")},
		{"case and high bytes at each position of eight", caseWindowText()},
	}
	// Words of the lengths around the scan's 8-byte loads and 64-byte
	// chunks, ending at every offset of the text's last 64 bytes.
	for _, n := range []int{7, 8, 9, 15, 16, 17, 63, 64, 65} {
		word := strings.Repeat("aB3", 22)[:n]
		for k := 0; k < 64; k++ {
			rows = append(rows, row{fmt.Sprintf("%d-byte word %d bytes from the end", n, k),
				[]byte("lead " + strings.Repeat("q", k%9) + " " + word + strings.Repeat(" ", k))})
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceWordCount(tc.text)
			var whole WordTable
			whole.Add(tc.text)
			if got := tableCounts(t, &whole); !reflect.DeepEqual(got, want) {
				t.Fatalf("Add over the whole text: %d distinct words, want %d", len(got), len(want))
			}
			if got := WordCount(tc.text); !reflect.DeepEqual(got, want) {
				t.Fatalf("WordCount: %d distinct words, want %d", len(got), len(want))
			}
			var pieced, merged WordTable
			for _, p := range separatorPieces(tc.text, 4096) {
				pieced.Add(p)
				var one WordTable
				one.Add(p)
				merged.Merge(&one)
			}
			if got := tableCounts(t, &pieced); !reflect.DeepEqual(got, want) {
				t.Fatalf("Add over 4 KB pieces: %d distinct words, want %d", len(got), len(want))
			}
			if got := tableCounts(t, &merged); !reflect.DeepEqual(got, want) {
				t.Fatalf("merged per-piece tables: %d distinct words, want %d", len(got), len(want))
			}
		})
	}
}

// everyByteText puts each of the 256 byte values between two word
// bytes, so each is read as a separator or as part of a word.
func everyByteText() []byte {
	var text []byte
	for b := 0; b < 256; b++ {
		text = append(text, 'w', byte(b), '7', ' ')
	}
	return text
}

// caseWindowText puts an upper-case byte, and a byte >= 0x80 whose low
// seven bits are a letter or digit, at each position of words of eight
// and more bytes.
func caseWindowText() []byte {
	var text []byte
	for _, w := range []string{"abcdefgh", "abcdefghijkl", "abcdefghijklmnopq"} {
		for i := range 8 {
			for _, c := range []byte{w[i] - 'a' + 'A', w[i] | 0x80, '1' | 0x80} {
				v := []byte(w)
				v[i] = c
				text = append(append(text, v...), ' ')
			}
		}
	}
	return text
}

// separatorPieces cuts text into pieces of about size bytes, each
// extended to the end of the word its nominal end would split.
func separatorPieces(text []byte, size int) [][]byte {
	var pieces [][]byte
	for start := 0; start < len(text); {
		end := min(start+size, len(text))
		for end < len(text) && IsWordByte(text[end]) {
			end++
		}
		pieces = append(pieces, text[start:end])
		start = end
	}
	return pieces
}

// Property: total word count equals the count from a reference
// tokenizer built on strings.FieldsFunc.
func TestWordCountMatchesReferenceProperty(t *testing.T) {
	ref := func(s string) map[string]int64 {
		out := make(map[string]int64)
		for _, w := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
		}) {
			out[w]++
		}
		return out
	}
	f := func(raw []byte) bool {
		// Constrain to ASCII so the reference semantics match.
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b % 128
		}
		return reflect.DeepEqual(WordCount(s), ref(string(s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzWordCount checks the table against the reference counter over
// arbitrary bytes, added whole and in separator-aligned pieces.
func FuzzWordCount(f *testing.F) {
	f.Add([]byte("the cat and The DOG and the bird"), uint8(7))
	f.Add([]byte("caf\xe9 A1b2!c3\x00"+strings.Repeat("z", 70)), uint8(1))
	f.Add([]byte(strings.Repeat(".", 60)+"CrossesAnEdge a1234567 b12345678 c123456789 "+strings.Repeat("Q", 65)), uint8(63))
	f.Add([]byte("a12345678 b12345678 abcdefgh1ijklmnop abcdefgh2ijklmnop aaaaaaaaa aaaaaaaaaa"), uint8(9))
	f.Add(caseWindowText(), uint8(200))
	f.Add(everyByteText(), uint8(31))
	f.Fuzz(func(t *testing.T, text []byte, piece uint8) {
		want := referenceWordCount(text)
		if got := WordCount(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("WordCount = %v, want %v", got, want)
		}
		var tab WordTable
		for _, p := range separatorPieces(text, int(piece)+1) {
			tab.Add(p)
		}
		if got := tableCounts(t, &tab); !reflect.DeepEqual(got, want) {
			t.Fatalf("pieces of %d: %v, want %v", int(piece)+1, got, want)
		}
	})
}

// referenceRuns is Runs as a comparison sort of the table's words on
// partition, then bytes: the oracle the radix sort is held to, byte
// for byte.
func referenceRuns(tab *WordTable, parts int) ([]byte, []int64) {
	type wordCount struct {
		part int
		word string
		n    int64
	}
	var all []wordCount
	tab.Each(func(w string, n int64) { all = append(all, wordCount{PartitionIndexString(w, parts), w, n}) })
	slices.SortFunc(all, func(a, b wordCount) int {
		return cmp.Or(cmp.Compare(a.part, b.part), strings.Compare(a.word, b.word))
	})
	var runs []byte
	sizes := make([]int64, parts)
	for _, e := range all {
		n := len(runs)
		runs = appendWordCount(runs, []byte(e.word), uint64(e.n))
		sizes[e.part] += int64(len(runs) - n)
	}
	return runs, sizes
}

// TestWordTableRunsMatchReference holds Runs to referenceRuns on Zipf
// blocks, on texts whose words share their first eight bytes, on a
// table grown several times and on one filled by Merge, each counted
// afresh after a Reset and cut one, four and seven ways; Each reads
// the same words and counts after Runs.
func TestWordTableRunsMatchReference(t *testing.T) {
	var many strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&many, "w%d ", i%7_000)
	}
	ties := []byte("abcdefgh1ijklmnop abcdefgh2ijklmnop abcdefgh abcdefghi abcdefgh12 ABCDEFGHZ abcdefgh")
	var tab WordTable
	for _, tc := range []struct {
		name string
		fill func()
	}{
		{"zipf 1 MiB", func() { tab.Add(testutil.ZipfText(1, 1<<20)) }},
		{"zipf 64 KiB", func() { tab.Add(testutil.ZipfText(2, 64<<10)) }},
		{"shared first eight bytes", func() { tab.Add(ties); tab.Add(caseWindowText()) }},
		{"growth", func() { tab.Add([]byte(many.String())) }},
		{"merged", func() {
			var a, b WordTable
			a.Add(testutil.ZipfText(3, 256<<10))
			b.Add(ties)
			b.Add(testutil.ZipfText(4, 256<<10))
			tab.Merge(&a)
			tab.Merge(&b)
		}},
	} {
		for _, parts := range []int{1, 4, 7} {
			tab.Reset()
			tc.fill()
			want, wantSizes := referenceRuns(&tab, parts)
			got, sizes := tab.Runs(parts)
			if !bytes.Equal(got, want) || !slices.Equal(sizes, wantSizes) {
				t.Fatalf("%s, %d parts: runs differ from the reference (sizes %v, want %v)", tc.name, parts, sizes, wantSizes)
			}
			if cap(got) != len(got) {
				t.Errorf("%s: runs of %d bytes in a buffer of %d", tc.name, len(got), cap(got))
			}
			if again, _ := referenceRuns(&tab, parts); !bytes.Equal(again, want) {
				t.Fatalf("%s, %d parts: Each reads other words or counts after Runs", tc.name, parts)
			}
		}
	}
}

var benchRuns []byte

// BenchmarkWordTable times the word-count map kernel on Zipf blocks:
// Add counts a block into a warm (Reset) table, and Add+Runs also cuts
// the counted table into four word runs, as a map task does.
func BenchmarkWordTable(b *testing.B) {
	for _, size := range []int{1 << 20, 64 << 10} {
		block := testutil.ZipfText(7, size)
		var tab WordTable
		b.Run(fmt.Sprintf("%dKiB/Add", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				tab.Reset()
				tab.Add(block)
			}
		})
		b.Run(fmt.Sprintf("%dKiB/Add+Runs", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				tab.Reset()
				tab.Add(block)
				benchRuns, _ = tab.Runs(4)
			}
		})
	}
}
