package kernels

// Sampled range partitioning, the TeraSort trick that makes the final
// merge disappear: a reservoir sample of the input keys picks R-1
// split keys, a sorted map run is cut at them into R slices, one per
// key range, and the sorted partitions concatenate in key order —
// reduce r's output strictly precedes reduce r+1's. This lives next to
// PartitionIndexString so both partitioning strategies share one home
// and the backends can never diverge on where a key routes.

import (
	"bytes"
	"io"
	"sort"
)

// RangePartitioner maps keys to partitions by binary search into a
// sorted list of split keys: partition i covers keys in
// [splits[i-1], splits[i]), with the first and last ranges open-ended.
// Duplicate split keys are legal and simply yield empty ranges, so a
// heavily skewed sample still produces a valid partitioner.
type RangePartitioner struct {
	splits [][]byte
}

// NewRangePartitioner builds a partitioner over R = len(splits)+1
// partitions. The split keys are defensively copied and sorted.
func NewRangePartitioner(splits [][]byte) *RangePartitioner {
	cp := make([][]byte, len(splits))
	for i, s := range splits {
		cp[i] = append([]byte(nil), s...)
	}
	sort.Slice(cp, func(a, b int) bool { return bytes.Compare(cp[a], cp[b]) < 0 })
	return &RangePartitioner{splits: cp}
}

// Parts returns the number of partitions the partitioner routes into.
func (p *RangePartitioner) Parts() int { return len(p.splits) + 1 }

// Index returns the partition for key: the number of split keys ≤ key.
// It is monotone in key order, which is what makes partition
// concatenation globally sorted.
func (p *RangePartitioner) Index(key []byte) int {
	// First split strictly greater than key; key belongs to that range.
	return sort.Search(len(p.splits), func(i int) bool {
		return bytes.Compare(p.splits[i], key) > 0
	})
}

// Cut splits a run of 100-byte records already in key order into
// exactly Parts() sub-slices, partition i holding the records Index
// routes to i. Because Index is monotone, each boundary is one binary
// search over record indices. The slices alias sorted and are capped,
// so appending to one cannot overwrite the next; an empty partition
// is nil.
func (p *RangePartitioner) Cut(sorted []byte) [][]byte {
	n := len(sorted) / SortRecordBytes
	parts := make([][]byte, p.Parts())
	lo := 0
	for i := range parts {
		hi := n
		if i < len(p.splits) {
			hi = lo + sort.Search(n-lo, func(j int) bool {
				off := (lo + j) * SortRecordBytes
				return p.Index(sorted[off:off+SortKeyBytes]) > i
			})
		}
		if hi > lo {
			parts[i] = sorted[lo*SortRecordBytes : hi*SortRecordBytes : hi*SortRecordBytes]
		}
		lo = hi
	}
	return parts
}

// SplitKeysFromSample computes parts-1 split keys as evenly spaced
// quantile boundaries of the (sorted) sample. A sample smaller than
// the partition count, or one dominated by duplicate keys, yields
// duplicate split keys and therefore empty ranges — correct, if
// uneven. With parts < 2 or an empty sample there is nothing to split
// and the result is nil (every key routes to partition 0).
func SplitKeysFromSample(sample [][]byte, parts int) [][]byte {
	if parts < 2 || len(sample) == 0 {
		return nil
	}
	sorted := make([][]byte, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(a, b int) bool { return bytes.Compare(sorted[a], sorted[b]) < 0 })
	splits := make([][]byte, parts-1)
	for i := 1; i < parts; i++ {
		q := (i * len(sorted)) / parts
		splits[i-1] = append([]byte(nil), sorted[q]...)
	}
	return splits
}

// RecordKeySampler is an io.Reader that passes a stream of 100-byte
// sort records through unchanged while reservoir-sampling their
// 10-byte keys, so one ingest pass (Client.WriteFrom over Job.Source)
// yields both the staged input and the split keys for a range
// partitioner. Sampling is deterministic for a given seed and stream.
// Not safe for concurrent Read calls, matching io.Reader convention.
type RecordKeySampler struct {
	r        io.Reader
	rng      piRNG
	capacity int
	keys     [][]byte
	seen     int64 // whole records observed so far
	recOff   int   // byte offset within the current record
	cur      [SortKeyBytes]byte
}

// NewRecordKeySampler wraps r with a reservoir of at most capacity
// keys. The seed fixes the reservoir's random replacement choices, so
// the same stream and seed always produce the same sample.
func NewRecordKeySampler(r io.Reader, capacity int, seed uint64) *RecordKeySampler {
	if capacity < 1 {
		capacity = 1
	}
	return &RecordKeySampler{r: r, rng: piRNG{state: seed}, capacity: capacity}
}

// Read implements io.Reader, observing record keys as the bytes flow
// through. Partial records at the very end of the stream are ignored
// by the sampler (WriteFrom rejects them downstream anyway).
func (s *RecordKeySampler) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.observe(p[:n])
	return n, err
}

// observe advances the record-boundary state machine over one chunk.
func (s *RecordKeySampler) observe(chunk []byte) {
	for len(chunk) > 0 {
		if s.recOff < SortKeyBytes {
			c := copy(s.cur[s.recOff:], chunk)
			s.recOff += c
			chunk = chunk[c:]
			if s.recOff == SortKeyBytes {
				s.sample(s.cur[:])
			}
			continue
		}
		skip := SortRecordBytes - s.recOff
		if skip > len(chunk) {
			s.recOff += len(chunk)
			return
		}
		chunk = chunk[skip:]
		s.recOff = 0
	}
}

// sample runs one step of Vitter's algorithm R.
func (s *RecordKeySampler) sample(key []byte) {
	s.seen++
	if len(s.keys) < s.capacity {
		s.keys = append(s.keys, append([]byte(nil), key...))
		return
	}
	// Replace a random reservoir slot with probability capacity/seen.
	j := s.rng.next() % uint64(s.seen)
	if j < uint64(s.capacity) {
		s.keys[j] = append([]byte(nil), key...)
	}
}

// Keys returns the sampled keys (unsorted, reservoir order).
func (s *RecordKeySampler) Keys() [][]byte { return s.keys }

// SplitKeys computes parts-1 split keys from the reservoir, ready for
// NewRangePartitioner or JobSpec.SplitKeys.
func (s *RecordKeySampler) SplitKeys(parts int) [][]byte {
	return SplitKeysFromSample(s.keys, parts)
}
