package kernels

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// buffer, leaving src untouched: SortedRecordsInto a buffer of src's
// size.
func SortedRecords(src []byte) ([]byte, error) {
	if len(src)%SortRecordBytes != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(src))
	}
	out := make([]byte, len(src))
	return out, SortedRecordsInto(out, src)
}

// SortedRecordsInto writes src's records into dst, which must be as
// long as src and not overlap it, in stable key order, and allocates
// nothing else for keys spread over the bucket bits. It parks each
// record's packed key in the head of the dst slot its bucket reserves,
// sorts each bucket's keys, and then gathers the records from src over
// the slots in order — a slot's key is read before the slot is
// written. A bucket is the sortBucketBits of the key below the prefix
// every key of src shares (the top bits, for random keys), so a block
// whose keys agree on their leading bits still spreads over the
// buckets; keys that are all equal leave src's order as it is. A bucket
// of at most insertionMax keys is sorted by insertion in an array on
// the stack; a larger one (skewed keys) by LSD radix passes in scratch
// sized to that bucket.
func SortedRecordsInto(dst, src []byte) error {
	if len(src)%SortRecordBytes != 0 {
		return fmt.Errorf("%w: %d bytes", ErrRecordSize, len(src))
	}
	if len(dst) != len(src) {
		return fmt.Errorf("kernels: %d-byte output for %d bytes of records", len(dst), len(src))
	}
	if n := len(src) / SortRecordBytes; uint64(n) > math.MaxUint32 {
		return fmt.Errorf("kernels: %d records overflow the 32-bit sort index", n)
	}
	if len(src) == 0 {
		return nil
	}
	// A bucket is sortBucketBits of the key's 64 bits past from (0 or
	// 16), from shift on: the first bits below the prefix every key
	// shares. The window is guessed from the first keys: a guess of the
	// top bits is right whatever follows, and a guessed prefix is checked
	// as the keys are counted, which they are again if it was wrong.
	variesHi, variesLo := keyVaries(src[:min(len(src), sortGuessKeys*SortRecordBytes)], src)
	from, shift := bucketWindow(variesHi, variesLo)
	// ends[b] is where bucket b starts in dst until the scatter moves
	// it past the bucket's last slot, to where bucket b+1 starts.
	var ends [1 << sortBucketBits]int
	if from == 0 && shift == 0 {
		countBuckets(&ends, src, from, shift)
	} else {
		for off := 0; off < len(src); off += SortRecordBytes {
			hi, lo := binary.BigEndian.Uint64(src[off:]), binary.BigEndian.Uint16(src[off+8:])
			variesHi, variesLo = variesHi|(hi^binary.BigEndian.Uint64(src)), variesLo|(lo^binary.BigEndian.Uint16(src[8:]))
			ends[bucketOf(src[off:], from, shift)]++
		}
		if variesHi == 0 && variesLo == 0 {
			copy(dst, src) // every key is the same: the stable order is src's
			return nil
		}
		if f, sh := bucketWindow(variesHi, variesLo); f != from || sh != shift {
			from, shift, ends = f, sh, [1 << sortBucketBits]int{}
			countBuckets(&ends, src, from, shift)
		}
	}
	sum := 0
	for b, k := range &ends {
		ends[b], sum = sum, sum+k*SortRecordBytes
	}
	for off := 0; off < len(src); off += SortRecordBytes {
		hi, lo := binary.BigEndian.Uint64(src[off:]), binary.BigEndian.Uint16(src[off+8:])
		to := &ends[bucketOf(src[off:], from, shift)]
		binary.NativeEndian.PutUint64(dst[*to:], hi)
		binary.NativeEndian.PutUint64(dst[*to+8:], uint64(lo)<<32|uint64(off/SortRecordBytes))
		*to += SortRecordBytes
	}
	var small [insertionMax]sortEntry
	start := 0
	for _, end := range &ends {
		slots := dst[start:end]
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
	return nil
}

// sortGuessKeys is how many leading keys SortedRecordsInto guesses its
// bucket bits from.
const sortGuessKeys = 64

// keyVaries returns the bits in which the keys of recs differ from the
// first key of src — every key XOR that one, ORed — in key bytes 0-7
// and 8-9.
func keyVaries(recs, src []byte) (variesHi uint64, variesLo uint16) {
	for off := 0; off < len(recs); off += SortRecordBytes {
		variesHi |= binary.BigEndian.Uint64(recs[off:]) ^ binary.BigEndian.Uint64(src)
		variesLo |= binary.BigEndian.Uint16(recs[off+8:]) ^ binary.BigEndian.Uint16(src[8:])
	}
	return variesHi, variesLo
}

// bucketWindow returns where the bucket bits start for keys whose bits
// vary as keyVaries says: from 16 when the top 16 key bits never vary,
// and shift past the bits that never vary after that.
func bucketWindow(variesHi uint64, variesLo uint16) (from, shift uint) {
	if variesHi>>48 == 0 {
		from = 16
	}
	return from, uint(bits.LeadingZeros64(variesHi<<from | uint64(variesLo)>>(16-from)))
}

// bucketOf returns the bucket of rec's key, its bits counted from the
// window bucketWindow returned.
func bucketOf(rec []byte, from, shift uint) int {
	hi := binary.BigEndian.Uint64(rec)
	if from > 0 {
		hi = hi<<16 | uint64(binary.BigEndian.Uint16(rec[8:]))
	}
	// The mask spares the shift its count-past-63 check: shift is at
	// most 63 once a bit varies.
	return int(hi << (shift & 63) >> (64 - sortBucketBits))
}

// countBuckets adds src's keys to the bucket counts in ends.
func countBuckets(ends *[1 << sortBucketBits]int, src []byte, from, shift uint) {
	for off := 0; off < len(src); off += SortRecordBytes {
		ends[bucketOf(src[off:], from, shift)]++
	}
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
