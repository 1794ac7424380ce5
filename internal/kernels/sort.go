package kernels

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// TeraSort-style record sorting (paper §IV-A discusses the Terasort
// contest results to argue record delivery, not sorting speed, bounds
// MapReduce mappers). Records are fixed-size: a 10-byte key followed
// by 90 bytes of payload, sorted lexicographically by key. The map
// kernel is a stable bucket sort on the leading key bits, with radix
// passes for crowded buckets: records with equal keys keep their input
// order, which is what lets every backend produce the same bytes for a
// job.

// SortRecordBytes is the TeraSort record size.
const SortRecordBytes = 100

// SortKeyBytes is the TeraSort key size.
const SortKeyBytes = 10

// ErrRecordSize is returned when a buffer is not a whole number of
// records.
var ErrRecordSize = errors.New("kernels: buffer is not a multiple of the 100-byte record size")

// GenerateSortRecords produces n deterministic pseudo-random records
// seeded by seed (the teragen role).
func GenerateSortRecords(seed uint64, n int) []byte {
	rng := piRNG{state: seed}
	out := make([]byte, n*SortRecordBytes)
	for i := 0; i < len(out); i += 8 {
		v := rng.next()
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
	return out
}

// sortBucketBits is how many leading key bits pick a record's bucket
// in SortedRecords: 4096 buckets, about ten records each in a 4 MB
// block of random keys.
const sortBucketBits = 12

// insertionMax is the largest bucket SortedRecords sorts by insertion;
// a larger one (skewed keys) takes the LSD radix passes.
const insertionMax = 64

// sortEntry is one record's key packed for sorting: hi holds key
// bytes 0–7 big-endian, lo holds key bytes 8–9 above the record's index
// in the input.
type sortEntry struct{ hi, lo uint64 }

// digit returns key byte d (0 most significant) of the entry.
func (e sortEntry) digit(d int) byte {
	if d < 8 {
		return byte(e.hi >> (56 - 8*d))
	}
	return byte(e.lo >> (32 + 8*(SortKeyBytes-1-d)))
}

// less orders entries by key, then by input index: the stable order.
func (e sortEntry) less(o sortEntry) bool { return e.hi < o.hi || e.hi == o.hi && e.lo < o.lo }

// SortedRecords returns src's records in stable key order in a new
// buffer, leaving src untouched, and allocates nothing else for keys
// spread over the leading bits. It parks each record's packed key in
// the head of the output slot its bucket (the top sortBucketBits of the
// key) reserves, sorts each bucket's keys, and then gathers the records
// from src over the slots in order — a slot's key is read before the
// slot is written. A bucket of at most insertionMax keys is sorted by
// insertion in an array on the stack; a larger one (skewed keys) by
// LSD radix passes in scratch sized to that bucket.
func SortedRecords(src []byte) ([]byte, error) {
	if len(src)%SortRecordBytes != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(src))
	}
	if n := len(src) / SortRecordBytes; uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("kernels: %d records overflow the 32-bit sort index", n)
	}
	out := make([]byte, len(src))
	bucket := func(rec []byte) int { return int(binary.BigEndian.Uint16(rec) >> (16 - sortBucketBits)) }
	// ends[b] is where bucket b starts in out until the scatter moves
	// it past the bucket's last slot, to where bucket b+1 starts.
	var ends [1 << sortBucketBits]int
	for off := 0; off < len(src); off += SortRecordBytes {
		ends[bucket(src[off:])]++
	}
	sum := 0
	for b, k := range &ends {
		ends[b], sum = sum, sum+k*SortRecordBytes
	}
	for off := 0; off < len(src); off += SortRecordBytes {
		to := &ends[bucket(src[off:])]
		binary.NativeEndian.PutUint64(out[*to:], binary.BigEndian.Uint64(src[off:]))
		binary.NativeEndian.PutUint64(out[*to+8:], uint64(src[off+8])<<40|uint64(src[off+9])<<32|uint64(off/SortRecordBytes))
		*to += SortRecordBytes
	}
	var small [insertionMax]sortEntry
	start := 0
	for _, end := range &ends {
		slots := out[start:end]
		keys := small[:0]
		if len(slots) > insertionMax*SortRecordBytes {
			keys = make([]sortEntry, 0, len(slots)/SortRecordBytes)
		}
		for off := 0; off < len(slots); off += SortRecordBytes {
			keys = append(keys, sortEntry{binary.NativeEndian.Uint64(slots[off:]), binary.NativeEndian.Uint64(slots[off+8:])})
		}
		if len(keys) > insertionMax {
			radixSort(keys)
		} else {
			insertionSort(keys)
		}
		for i, e := range keys {
			from := int(uint32(e.lo)) * SortRecordBytes
			*(*[SortRecordBytes]byte)(slots[i*SortRecordBytes:]) = *(*[SortRecordBytes]byte)(src[from:])
		}
		start = end
	}
	return out, nil
}

// insertionSort sorts a few entries in place by key and input index.
func insertionSort(keys []sortEntry) {
	for i := 1; i < len(keys); i++ {
		e, j := keys[i], i
		for ; j > 0 && e.less(keys[j-1]); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = e
	}
}

// radixSort sorts entries stably by key with one LSD counting pass per
// key byte that varies among them, through one scratch array.
func radixSort(keys []sortEntry) {
	a, b := keys, make([]sortEntry, len(keys))
	var counts [SortKeyBytes][256]int
	for _, e := range a {
		for d := range SortKeyBytes {
			counts[d][e.digit(d)]++
		}
	}
	for d := SortKeyBytes - 1; d >= 0; d-- {
		if counts[d][a[0].digit(d)] == len(a) {
			continue // every entry has this byte: the pass would not move one
		}
		var next [256]int
		sum := 0
		for v, k := range &counts[d] {
			next[v] = sum
			sum += k
		}
		for _, e := range a {
			v := e.digit(d)
			b[next[v]] = e
			next[v]++
		}
		a, b = b, a
	}
	copy(keys, a) // a no-op when the passes that ran were even
}

// SortRecords sorts the records in buf in place by their 10-byte keys.
func SortRecords(buf []byte) error {
	sorted, err := SortedRecords(buf)
	if err != nil {
		return err
	}
	copy(buf, sorted)
	return nil
}

// RecordsSorted reports whether buf's records are in key order.
func RecordsSorted(buf []byte) (bool, error) {
	if len(buf)%SortRecordBytes != 0 {
		return false, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(buf))
	}
	n := len(buf) / SortRecordBytes
	for i := 1; i < n; i++ {
		prev := buf[(i-1)*SortRecordBytes : (i-1)*SortRecordBytes+SortKeyBytes]
		cur := buf[i*SortRecordBytes : i*SortRecordBytes+SortKeyBytes]
		if bytes.Compare(prev, cur) > 0 {
			return false, nil
		}
	}
	return true, nil
}
