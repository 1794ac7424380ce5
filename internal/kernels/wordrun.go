package kernels

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"slices"
)

// errWordRun reports a word run with an empty, overlong or out-of-order
// word.
var errWordRun = errors.New("kernels: malformed word run")

// Runs cuts the table into parts word runs, the form a word count
// travels in between tasks: run p holds the words PartitionIndexString
// sends to p, in ascending byte order, each as uvarint(len) word
// uvarint(count), so equal counts are equal bytes. The runs come back
// to back, in partition order, in one allocation of exactly their
// size, with each run's size. Runs reorders the entries, so the table
// counts again only after Reset.
func (t *WordTable) Runs(parts int) (runs []byte, sizes []int64) {
	word := func(e wordEntry) []byte { return t.arena[e.off : e.off+e.n] }
	size := 0
	for i := range t.entries {
		e := &t.entries[i]
		e.key = uint64(PartitionIndexString(word(*e), parts)) // the slot key is dead until Reset
		size += uvarintLen(uint64(e.n)) + e.n + uvarintLen(uint64(e.count))
	}
	slices.SortFunc(t.entries, func(a, b wordEntry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), bytes.Compare(word(a), word(b)))
	})
	runs, sizes = make([]byte, 0, size), make([]int64, parts)
	for _, e := range t.entries {
		n := len(runs)
		runs = appendWordCount(runs, word(e), uint64(e.count))
		sizes[e.key] += int64(len(runs) - n)
	}
	return runs, sizes
}

// Reset empties the table and keeps its memory for the next count.
func (t *WordTable) Reset() {
	clear(t.slots)
	t.entries, t.arena = t.entries[:0], t.arena[:0]
}

func appendWordCount(dst, word []byte, n uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(word)))
	return binary.AppendUvarint(append(dst, word...), n)
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// wordRun reads a run of size bytes one word at a time: word and its
// count n, the word before it kept as prev, done at the run's end.
type wordRun struct {
	r          *bufio.Reader
	size       int64
	word, prev []byte
	n          uint64
	done       bool
}

func (r *wordRun) next() error {
	r.word, r.prev = r.prev[:0], r.word
	l, err := binary.ReadUvarint(r.r)
	if r.done = err == io.EOF; r.done {
		return nil
	}
	if err == nil && (l == 0 || l > uint64(r.size)) {
		return errWordRun
	}
	if err == nil {
		r.word = slices.Grow(r.word, int(l))[:l]
		if _, err = io.ReadFull(r.r, r.word); err == nil {
			r.n, err = binary.ReadUvarint(r.r)
		}
	}
	if err == nil && len(r.prev) > 0 && bytes.Compare(r.prev, r.word) >= 0 {
		return errWordRun
	}
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// EachWordRun calls fn for every word of run, in order, with its count.
// word is valid only until fn returns.
func EachWordRun(run []byte, fn func(word []byte, n int64)) error {
	r := wordRun{r: bufio.NewReaderSize(bytes.NewReader(run), 16), size: int64(len(run))}
	for {
		if err := r.next(); err != nil || r.done {
			return err
		}
		fn(r.word, int64(r.n))
	}
}

// MergeWordRuns merges word runs, run i being sizes[i] bytes read from
// runs[i] through a 4 KB window, into one that sums equal words' counts.
// The output is at least as long as the longest run and starts there.
func MergeWordRuns(runs []io.Reader, sizes []int64) ([]byte, error) {
	heads, longest := make([]wordRun, len(runs)), int64(0)
	for i := range heads {
		heads[i] = wordRun{r: bufio.NewReaderSize(runs[i], 4<<10), size: sizes[i]}
		if err := heads[i].next(); err != nil {
			return nil, err
		}
		longest = max(longest, sizes[i])
	}
	out := make([]byte, 0, longest)
	for {
		var least []byte
		for i := range heads {
			if h := &heads[i]; !h.done && (least == nil || bytes.Compare(h.word, least) < 0) {
				least = h.word
			}
		}
		if least == nil {
			return out, nil
		}
		// An advanced head keeps its last word as prev, so least holds.
		var n uint64
		for i := range heads {
			if h := &heads[i]; !h.done && bytes.Equal(h.word, least) {
				n += h.n
				if err := h.next(); err != nil {
					return nil, err
				}
			}
		}
		out = appendWordCount(out, least, n)
	}
}
