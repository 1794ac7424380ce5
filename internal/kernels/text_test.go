package kernels

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

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
	var got []string
	Words([]byte("a "+long+" b"), func(w []byte) { got = append(got, string(w)) })
	if len(got) != 3 || got[1] != strings.ToLower(long) {
		t.Errorf("long word handling wrong: %v", got)
	}
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
