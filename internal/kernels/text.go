package kernels

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
)

// Text kernels for the classic MapReduce example, word count. It is
// not in the paper's evaluation but exercises the key/value half of the
// MapReduce API the way the original MapReduce and Hadoop papers
// motivate it.

// A word is a maximal run of ASCII letters and digits; every other
// byte — punctuation, space, control and every byte >= 0x80 — is a
// separator. Setting bit 0x20 of a letter or digit lowercases it, and
// leaves a digit (0x30-0x39) as it is.
const lower8 = 0x2020202020202020

// IsWordByte exposes the word/separator classification, so runtimes
// that carve a block into sub-blocks (the accelerated wordcount path)
// can split only at separators and never cut a word in half.
func IsWordByte(b byte) bool {
	return b|0x20 >= 'a' && b|0x20 <= 'z' || b >= '0' && b <= '9'
}

// wordBits classifies the eight bytes of x, loaded little-endian, at
// once: bit i of the result is set when byte i is a word byte. Each
// range test adds a per-byte bias to the low seven bits, so a byte's
// high bit says whether it reached the range's bound, and no carry
// crosses into the next byte.
func wordBits(x uint64) uint64 {
	x7 := x & 0x7f7f7f7f7f7f7f7f
	l := x7 | lower8
	letter := (l + 0x1f1f1f1f1f1f1f1f) &^ (l + 0x0505050505050505)  // 'a' <= l <= 'z'
	digit := (x7 + 0x5050505050505050) &^ (x7 + 0x4646464646464646) // '0' <= x7 <= '9'
	m := (letter | digit) &^ x & 0x8080808080808080                 // and x < 0x80
	return (m >> 7) * 0x0102040810204080 >> 56                      // gather the high bits
}

// WordTable tallies word frequencies: an open-addressed hash table keyed
// by the lowercased word bytes. Every distinct word's bytes are kept
// once, back to back in one arena, so counting a word the table has
// already seen allocates nothing. It holds up to 4 GiB of distinct
// words' bytes. The zero value is an empty table.
type WordTable struct {
	// slots holds, per slot, the index+1 of its entry in the bits
	// under the mask (len(slots)-1) and the word's hash above them, 0
	// when empty; len is a power of two, at least twice the entries.
	// Runs sorts in them.
	slots   []uint32
	entries []wordEntry // the distinct words, in first-seen order
	arena   []byte      // the distinct words' bytes
}

type wordEntry struct {
	key, head uint64 // see wordKeys; Runs overwrites them
	count     int64
	off, n    uint32 // the word is arena[off : off+n]
}

// Add tallies every maximal run of letters and digits in text,
// lowercased. A word ends at a separator or at the end of text, so
// adding separator-aligned pieces of a text one by one counts what
// adding the whole text does.
//
// Add classifies text 64 bytes at a time into a bitmap of word bytes,
// and walks the bitmap's edges — a word's first byte and the byte past
// its last — with trailing-zero counts.
func (t *WordTable) Add(text []byte) {
	// Distinct words grow about as the square root of the text length
	// (Heaps' law); the table doubles when the guess is short.
	t.reserve(6 * int(math.Sqrt(float64(len(text)))))
	start := -1       // the open word's first byte, -1 between words
	prev := uint64(0) // 1 when the byte before the chunk is a word byte
	for base := 0; base < len(text); base += 64 {
		c := text[base:]
		if len(c) < 64 {
			// The last chunk, padded with separators: a word the text
			// ends in closes there.
			var pad [64]byte
			copy(pad[:], c)
			c = pad[:]
		}
		cs := (*[64]byte)(c)
		m := wordBits(binary.LittleEndian.Uint64(cs[0:8])) |
			wordBits(binary.LittleEndian.Uint64(cs[8:16]))<<8 |
			wordBits(binary.LittleEndian.Uint64(cs[16:24]))<<16 |
			wordBits(binary.LittleEndian.Uint64(cs[24:32]))<<24 |
			wordBits(binary.LittleEndian.Uint64(cs[32:40]))<<32 |
			wordBits(binary.LittleEndian.Uint64(cs[40:48]))<<40 |
			wordBits(binary.LittleEndian.Uint64(cs[48:56]))<<48 |
			wordBits(binary.LittleEndian.Uint64(cs[56:64]))<<56
		edges := m ^ (m<<1 | prev)
		prev = m >> 63
		for edges != 0 {
			at := base + bits.TrailingZeros64(edges)
			edges &= edges - 1
			if start < 0 {
				start = at
				continue
			}
			n := at - start
			var key, head uint64
			if at >= 8 {
				// One load each for the last eight bytes and, past
				// eight, the first, picked without a branch: d > 0
				// bytes of the last load precede a short word, and a
				// long one's head is d bytes before that load.
				d := 8 - n
				long := d >> 63 // -1 past eight bytes, else 0
				key = (binary.BigEndian.Uint64(text[at-8:]) | lower8) & (^uint64(0) >> (uint(8*(d&^long)) & 63))
				head = (binary.BigEndian.Uint64(text[at-8+d&long:]) | lower8) & uint64(long)
			} else {
				key, head = wordKeys(text[start:at])
			}
			h := wordHash(key, head)
			mask := uint32(len(t.slots) - 1)
			if s := t.slots[h&mask]; (s^h)&^mask == 0 {
				if e := &t.entries[s&mask-1]; e.key == key && e.head == head && int(e.n) == n && n <= 16 {
					e.count++
					start = -1
					continue
				}
			}
			// A probe past the first slot, a longer word or a new one.
			t.count(text[start:at], key, head, h, 1)
			start = -1
		}
	}
	if start >= 0 {
		key, head := wordKeys(text[start:])
		t.count(text[start:], key, head, wordHash(key, head), 1)
	}
}

// wordKeys returns w's keys, lowercased and packed big-endian: its last
// eight bytes and, when it is longer than eight, its first eight (0
// otherwise). Words of at most 16 bytes are equal exactly when their
// keys and lengths are; a word holds no zero byte.
func wordKeys(w []byte) (key, head uint64) {
	for _, c := range w[max(0, len(w)-8):] {
		key = key<<8 | uint64(c|0x20)
	}
	if len(w) > 8 {
		head = binary.BigEndian.Uint64(w) | lower8
	}
	return key, head
}

// Merge adds every count in o to t. o is unchanged.
func (t *WordTable) Merge(o *WordTable) {
	t.reserve(len(o.entries))
	for _, e := range o.entries {
		t.count(o.arena[e.off:e.off+e.n], e.key, e.head, wordHash(e.key, e.head), e.count)
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

// wordHash returns the slot hash of a word from its keys (see
// wordKeys): one multiply, with the top bit set so that no slot's hash
// bits are 0.
func wordHash(key, head uint64) uint32 {
	x := key ^ bits.RotateLeft64(head, 31)
	return uint32((x^x>>29)*0x9e3779b97f4a7c15>>32) | 1<<31
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
	t.slots = make([]uint32, size)
	t.entries = make([]wordEntry, 0, words)
	t.arena = make([]byte, 0, 8*words)
}

// count adds c to word w, in either case, whose keys and slot hash
// are key, head and h, inserting it if new. A slot keeps the hash bits
// above its index, so a probe reads an entry only when they match.
func (t *WordTable) count(w []byte, key, head uint64, h uint32, c int64) {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			off := len(t.arena)
			if uint64(off)+uint64(len(w)) > math.MaxUint32 {
				panic("kernels: WordTable holds more than 4 GiB of distinct words")
			}
			t.slots[i] = h&^mask | uint32(len(t.entries)+1)
			t.entries = append(t.entries, wordEntry{key: key, head: head, count: c, off: uint32(off), n: uint32(len(w))})
			t.arena = append(t.arena, w...)
			for j := off; j < len(t.arena); j++ {
				t.arena[j] |= 0x20
			}
			if 2*len(t.entries) > len(t.slots) {
				t.rehash(2 * len(t.slots))
			}
			return
		}
		if (s^h)&^mask != 0 {
			continue
		}
		// The keys cover the first and last eight bytes; a longer word
		// compares the bytes between.
		e := &t.entries[s&mask-1]
		if e.key == key && e.head == head && int(e.n) == len(w) && (e.n <= 16 || bytes.EqualFold(t.arena[e.off+8:e.off+e.n-8], w[8:len(w)-8])) {
			e.count += c
			return
		}
	}
}

// rehash rebuilds the slots at the given power-of-two size; the
// entries and arena stay where they are.
func (t *WordTable) rehash(size int) {
	t.slots = make([]uint32, size)
	mask := uint32(size - 1)
	for j, e := range t.entries {
		h := wordHash(e.key, e.head)
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h&^mask | uint32(j+1)
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
