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
// kernel is a stable LSD radix sort over packed keys: records with
// equal keys keep their input order, which is what lets every backend
// produce the same bytes for a job.

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

// sortEntry is one record's key packed for the radix passes: hi holds
// key bytes 0–7 big-endian, lo holds key bytes 8–9 above the record's
// index in the input.
type sortEntry struct{ hi, lo uint64 }

// digit returns key byte d (0 most significant) of the entry.
func (e sortEntry) digit(d int) byte {
	if d < 8 {
		return byte(e.hi >> (56 - 8*d))
	}
	return byte(e.lo >> (32 + 8*(SortKeyBytes-1-d)))
}

// SortedRecords returns src's records in stable key order in a new
// buffer, leaving src untouched. It packs every key into a sortEntry,
// runs one LSD counting pass per key byte and gathers the records into
// the output once.
func SortedRecords(src []byte) ([]byte, error) {
	if len(src)%SortRecordBytes != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(src))
	}
	n := len(src) / SortRecordBytes
	if n < 2 {
		return append([]byte(nil), src...), nil
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("kernels: %d records overflow the 32-bit sort index", n)
	}
	a, b := make([]sortEntry, n), make([]sortEntry, n)
	var counts [SortKeyBytes][256]int
	for i := range a {
		key := src[i*SortRecordBytes : i*SortRecordBytes+SortKeyBytes]
		a[i] = sortEntry{
			hi: binary.BigEndian.Uint64(key),
			lo: uint64(key[8])<<40 | uint64(key[9])<<32 | uint64(i),
		}
		for d, k := range key {
			counts[d][k]++
		}
	}
	for d := SortKeyBytes - 1; d >= 0; d-- {
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
	out := make([]byte, len(src))
	for i, e := range a {
		from := int(uint32(e.lo)) * SortRecordBytes
		copy(out[i*SortRecordBytes:(i+1)*SortRecordBytes], src[from:from+SortRecordBytes])
	}
	return out, nil
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
