package kernels

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The reduce side of every backend's sort: one loser tree over k
// sorted record runs, keyed by SortedRecords' packed form (key bytes
// 0–7 as a big-endian uint64, then bytes 8–9, then the run index), so
// a record costs log2(k) integer compares and one copy, and equal keys
// drain lower-indexed runs first on every backend.

// mergeWindow (160 records) is a stream's read window and Write size.
const mergeWindow = 160 * SortRecordBytes

// mergeRun is one run's head.
type mergeRun struct {
	hi, lo   uint64    // packed key of win's first record
	win, buf []byte    // records in hand; a stream's window
	r        io.Reader // nil once nothing more can be read
}

// merger is a loser tree: tree[0] is the run with the smallest head,
// tree[p] (0 < p < k) the loser at the node over 2p and 2p+1.
type merger struct {
	runs []mergeRun
	tree []int
	live int
}

// load packs run i's head, refilling an empty window from its stream.
// A finished run packs as all ones, after any real head (its lo holds
// a run index below 1<<48); a torn tail is ErrRecordSize.
func (m *merger) load(i int) error {
	r := &m.runs[i]
	if len(r.win) == 0 && r.r != nil {
		n, err := io.ReadFull(r.r, r.buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.r, err = nil, nil
		}
		if err != nil {
			return err
		}
		r.win = r.buf[:n]
	}
	switch {
	case len(r.win) == 0:
		r.hi, r.lo = ^uint64(0), ^uint64(0)
		m.live--
	case len(r.win) < SortRecordBytes:
		return fmt.Errorf("%w: run %d ends mid-record", ErrRecordSize, i)
	default:
		r.hi = binary.BigEndian.Uint64(r.win)
		r.lo = uint64(r.win[8])<<56 | uint64(r.win[9])<<48 | uint64(i)
	}
	return nil
}

// play replays run i's head from its leaf to the root. While the tree
// is built, a node still holding -1 parks the head for the other side.
func (m *merger) play(i int) {
	tree, hi, lo := m.tree, m.runs[i].hi, m.runs[i].lo
	for p := (i + len(tree)) >> 1; p > 0; p >>= 1 {
		if tree[p] < 0 {
			tree[p] = i
			return
		}
		if o := &m.runs[tree[p]]; o.hi < hi || o.hi == hi && o.lo < lo {
			tree[p], i, hi, lo = i, tree[p], o.hi, o.lo
		}
	}
	tree[0] = i
}

// merge drains the runs into out, whole when w is nil, else as a window
// handed to w each time it fills and at the end. It returns the bytes
// merged; runs holding more than a whole out are an error.
func (m *merger) merge(out []byte, w io.Writer) (written int64, err error) {
	m.live, m.tree = len(m.runs), make([]int, len(m.runs))
	for p := range m.tree {
		m.tree[p] = -1
	}
	for i := range m.runs {
		if err := m.load(i); err != nil {
			return 0, err
		}
		m.play(i)
	}
	n := 0
	for m.live > 0 {
		if n == len(out) { // only a whole out fills: a window is flushed first
			return written, fmt.Errorf("kernels: sorted runs overflow a %d-byte merge output", len(out))
		}
		i := m.tree[0]
		r := &m.runs[i]
		*(*[SortRecordBytes]byte)(out[n:]) = *(*[SortRecordBytes]byte)(r.win)
		r.win, n = r.win[SortRecordBytes:], n+SortRecordBytes
		if err := m.load(i); err != nil {
			return written, err
		}
		m.play(i)
		if w != nil && (n == len(out) || m.live == 0) {
			nw, err := w.Write(out[:n])
			if written += int64(nw); err != nil {
				return written, err
			}
			n = 0
		}
	}
	if w == nil {
		written = int64(n)
	}
	return written, nil
}

// MergeSortedStreams merges sorted streams of whole 100-byte records
// into one sorted stream on w and returns the bytes written, holding one
// window per run: a reduce can merge spilled runs larger than RAM.
func MergeSortedStreams(w io.Writer, runs ...io.Reader) (int64, error) {
	m, out := newStreamMerger(runs, mergeWindow)
	return m.merge(out, w)
}

// MergeSortedInto merges sorted streams of whole 100-byte records into
// out, which must be exactly their total size, holding one window per
// run: the reduce side of a net sort, whose remote runs arrive in
// chunks.
func MergeSortedInto(out []byte, runs ...io.Reader) error {
	m, _ := newStreamMerger(runs, 0)
	n, err := m.merge(out, nil)
	if err == nil && n != int64(len(out)) {
		err = fmt.Errorf("kernels: sorted runs hold %d bytes, want %d", n, len(out))
	}
	return err
}

// newStreamMerger sets up a merger reading each stream through its own
// mergeWindow of one slab, and returns the slab's extra bytes past the
// windows.
func newStreamMerger(runs []io.Reader, extra int) (*merger, []byte) {
	slab := make([]byte, len(runs)*mergeWindow+extra)
	m := &merger{runs: make([]mergeRun, len(runs))}
	for i, r := range runs {
		m.runs[i] = mergeRun{r: r, buf: slab[i*mergeWindow : (i+1)*mergeWindow]}
	}
	return m, slab[len(runs)*mergeWindow:]
}

// MergeSortedRuns merges sorted in-memory runs (the map outputs), read
// in place, into one new buffer of exactly their total size.
func MergeSortedRuns(runs [][]byte) ([]byte, error) {
	m := &merger{runs: make([]mergeRun, len(runs))}
	var total int
	for i, r := range runs {
		m.runs[i].win = r
		total += len(r)
	}
	out := make([]byte, total)
	if _, err := m.merge(out, nil); err != nil {
		return nil, err
	}
	return out, nil
}
