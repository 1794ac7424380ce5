package kernels

import (
	"bufio"
	"bytes"
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
// size, with each run's size. Each still reads the table afterwards;
// Add, Merge and Runs need a Reset first.
//
// Runs sorts entry indices in the slots, which hold at least two per
// word, with one LSD counting pass per byte of the words' first eight
// that varies — big-endian, a short word's zero padding sorting before
// any word byte — and a last pass on the partition. Only words that
// share their first eight bytes compare the rest.
func (t *WordTable) Runs(parts int) (runs []byte, sizes []int64) {
	n := len(t.entries)
	order, scratch := t.slots[:n], t.slots[n:2*n]
	// sizes counts each partition's words, then holds where the next
	// one goes in the last pass, then each run's size.
	sizes = make([]int64, parts)
	var counts [8][256]int // per prefix byte, from the last
	size := 0
	for i := range t.entries {
		e := &t.entries[i]
		// The keys are dead until Reset: key takes the word's first
		// eight bytes and head its partition.
		e.key, e.head = e.prefix(), uint64(PartitionIndexString(t.word(*e), parts))
		order[i] = uint32(i)
		for d := range counts {
			counts[d][byte(e.key>>(8*d))]++
		}
		sizes[e.head]++
		size += uvarintLen(uint64(e.n)) + int(e.n) + uvarintLen(uint64(e.count))
	}
	for d := range counts {
		c := &counts[d]
		if n == 0 || c[byte(t.entries[0].key>>(8*d))] == n {
			continue // every word has this byte: the pass would move none
		}
		at := 0
		for v, k := range c {
			c[v], at = at, at+k
		}
		for _, i := range order {
			v := byte(t.entries[i].key >> (8 * d))
			scratch[c[v]] = i
			c[v]++
		}
		order, scratch = scratch, order
	}
	at := int64(0)
	for p, k := range sizes {
		sizes[p], at = at, at+k
	}
	for _, i := range order {
		p := t.entries[i].head
		scratch[sizes[p]] = i
		sizes[p]++
	}
	order = scratch
	for i := 0; i < n; {
		a, j := t.entries[order[i]], i+1
		for j < n && t.entries[order[j]].key == a.key && t.entries[order[j]].head == a.head {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], func(x, y uint32) int {
				return bytes.Compare(t.word(t.entries[x]), t.word(t.entries[y]))
			})
		}
		i = j
	}
	runs = make([]byte, 0, size)
	clear(sizes)
	for _, i := range order {
		e := t.entries[i]
		n := len(runs)
		runs = appendWordCount(runs, t.word(e), uint64(e.count))
		sizes[e.head] += int64(len(runs) - n)
	}
	return runs, sizes
}

func (t *WordTable) word(e wordEntry) []byte { return t.arena[e.off : e.off+e.n] }

// prefix returns e's word's first eight bytes, big-endian, zero-padded:
// its head past eight bytes, else its key moved to the top.
func (e wordEntry) prefix() uint64 {
	if e.n > 8 {
		return e.head
	}
	return e.key << (8 * (8 - e.n))
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
// runs[i] through a window of at most 4 KB, into one that sums equal
// words' counts, appended to dst: as long as all of them when no word is
// in two, and never longer.
func MergeWordRuns(dst []byte, runs []io.Reader, sizes []int64) ([]byte, error) {
	heads := make([]wordRun, len(runs))
	for i := range heads {
		heads[i] = wordRun{r: bufio.NewReaderSize(runs[i], int(min(4<<10, sizes[i]))), size: sizes[i]}
		if err := heads[i].next(); err != nil {
			return nil, err
		}
	}
	out := dst
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
