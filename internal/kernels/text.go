package kernels

import "math"

// Text kernels for the classic MapReduce example, word count. It is
// not in the paper's evaluation but exercises the key/value half of the
// MapReduce API the way the original MapReduce and Hadoop papers
// motivate it.

// wordByte classifies and lowercases a byte in one lookup: a letter or
// digit maps to its lowercase form, every other byte — punctuation,
// space, control and every byte >= 0x80 — to 0, a separator.
var wordByte = func() (t [256]byte) {
	for b := '0'; b <= '9'; b++ {
		t[b] = byte(b)
	}
	for b := 'a'; b <= 'z'; b++ {
		t[b] = byte(b)
		t[b-'a'+'A'] = byte(b)
	}
	return t
}()

// IsWordByte exposes the word/separator classification, so runtimes
// that carve a block into sub-blocks (the accelerated wordcount path)
// can split only at separators and never cut a word in half.
func IsWordByte(b byte) bool { return wordByte[b] != 0 }

// WordTable tallies word frequencies: an open-addressed hash table keyed
// by the lowercased word bytes. Every distinct word's bytes are kept
// once, back to back in one arena, so counting a word the table has
// already seen allocates nothing. The zero value is an empty table.
type WordTable struct {
	slots   []int32     // entry index+1 per slot, 0 when empty; len a power of two
	entries []wordEntry // the distinct words, in first-seen order
	arena   []byte      // the distinct words' bytes
	word    []byte      // scratch: the word Add is scanning, lowercased
}

type wordEntry struct {
	key    uint64 // the word's last eight bytes (see wordHash)
	off, n int    // the word is arena[off : off+n]
	count  int64
}

// Add tallies every maximal run of letters and digits in text,
// lowercased. A word ends at a separator or at the end of text, so
// adding separator-aligned pieces of a text one by one counts what
// adding the whole text does.
func (t *WordTable) Add(text []byte) {
	// Distinct words grow about as the square root of the text length
	// (Heaps' law); the table doubles when the guess is short.
	t.reserve(6 * int(math.Sqrt(float64(len(text)))))
	w := t.word[:0]
	// wordHash's key and FNV-1a state, kept as the bytes go by.
	key, h := uint64(0), uint64(fnvOffset64)
	for _, b := range text {
		if c := wordByte[b]; c != 0 {
			w = append(w, c)
			key = key<<8 | uint64(c)
			h = (h ^ uint64(c)) * fnvPrime64
		} else if len(w) > 0 {
			t.count(w, key, uint32(h>>32), 1)
			w, key, h = w[:0], 0, fnvOffset64
		}
	}
	if len(w) > 0 {
		t.count(w, key, uint32(h>>32), 1)
	}
	t.word = w
}

// Merge adds every count in o to t. o is unchanged.
func (t *WordTable) Merge(o *WordTable) {
	t.reserve(len(o.entries))
	for _, e := range o.entries {
		w := o.arena[e.off : e.off+e.n]
		_, h := wordHash(w)
		t.count(w, e.key, h, e.count)
	}
}

// Each calls fn once for every distinct word with its count, in the
// order the words were first seen. The words share one allocation.
func (t *WordTable) Each(fn func(word string, n int64)) {
	arena := string(t.arena)
	for _, e := range t.entries {
		fn(arena[e.off:e.off+e.n], e.count)
	}
}

// wordHash returns a lowercased word's key, its last eight bytes packed
// into a uint64, and its slot hash, the top half of its FNV-1a hash.
// A word holds no zero byte, so two words of at most eight bytes are
// equal exactly when their keys and lengths are. Add computes the same
// pair inline, byte by byte as it scans.
func wordHash(w []byte) (key uint64, h uint32) {
	f := uint64(fnvOffset64)
	for _, c := range w {
		key = key<<8 | uint64(c)
		f = (f ^ uint64(c)) * fnvPrime64
	}
	return key, uint32(f >> 32)
}

// reserve sizes an empty table for about words distinct words. A table
// already in use grows in count instead.
func (t *WordTable) reserve(words int) {
	if t.slots != nil {
		return
	}
	size := 16
	for size < 2*words {
		size *= 2
	}
	t.slots = make([]int32, size)
	t.entries = make([]wordEntry, 0, words)
	t.arena = make([]byte, 0, 8*words)
}

// count adds n to word w, whose key and slot hash are key and h,
// inserting it if new.
func (t *WordTable) count(w []byte, key uint64, h uint32, n int64) {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(len(t.entries) + 1)
			t.entries = append(t.entries, wordEntry{key: key, off: len(t.arena), n: len(w), count: n})
			t.arena = append(t.arena, w...)
			if 2*len(t.entries) > len(t.slots) {
				t.rehash(2 * len(t.slots))
			}
			return
		}
		e := &t.entries[s-1]
		// The key covers the last eight bytes; a longer word compares
		// the rest.
		if e.key == key && e.n == len(w) && (e.n <= 8 || string(t.arena[e.off:e.off+e.n-8]) == string(w[:e.n-8])) {
			e.count += n
			return
		}
	}
}

// rehash rebuilds the slots at the given power-of-two size; the
// entries and arena stay where they are.
func (t *WordTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := uint32(size - 1)
	for j, e := range t.entries {
		_, h := wordHash(t.arena[e.off : e.off+e.n])
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(j + 1)
	}
}

// WordCount tallies word frequencies in data.
func WordCount(data []byte) map[string]int64 {
	var t WordTable
	t.Add(data)
	counts := make(map[string]int64, len(t.entries))
	t.Each(func(w string, n int64) { counts[w] = n })
	return counts
}
