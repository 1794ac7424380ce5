package kernels

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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
	for _, tc := range []struct {
		name string
		text []byte
	}{
		{"empty", nil},
		{"separators only", []byte(" \t\n.,;!?-\x00\x80\xff  ")},
		{"mixed case", []byte("Hello HELLO hello hElLo World")},
		{"digits", []byte("route 66 and 007 r2d2 2009")},
		{"bytes >= 0x80 separate", high},
		{"word over 64 bytes", []byte("x " + strings.Repeat("Ab9", 50) + " y " + strings.Repeat("ab9", 50))},
		{"trailing word", []byte("no separator at the END")},
		{"growth", []byte(many.String())},
		{"4 KB pieces", bytes.Repeat([]byte("Lorem ipsum dolor sit amet, consectetur 2009.\n"), 400)},
	} {
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
