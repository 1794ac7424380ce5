package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strconv"

	"hetmr/internal/engine"
)

// Output verification. Every job's output is checked against a
// reference computed in set-up by a path that does not run the job:
// the generators' own tallies (gen.go), stdlib crypto for the cipher,
// and the kernels' canonical decomposition for Pi. A mismatch counts
// the job as failed.

// sortSink is the terasort Sink: it checks in O(1) space that the
// stream is a sequence of whole records in non-decreasing key order,
// and accumulates the multiset digest and byte count that must equal
// the input's.
type sortSink struct {
	got     sortRef
	rec     [recordSize]byte // carry for a record split across writes
	fill    int
	prev    [10]byte
	started bool
	err     error
}

func (s *sortSink) Write(p []byte) (int, error) {
	n := len(p)
	s.got.bytes += int64(n)
	if s.fill > 0 {
		c := copy(s.rec[s.fill:], p)
		s.fill += c
		p = p[c:]
		if s.fill < recordSize {
			return n, nil
		}
		s.record(s.rec[:])
		s.fill = 0
	}
	for len(p) >= recordSize {
		s.record(p[:recordSize])
		p = p[recordSize:]
	}
	s.fill = copy(s.rec[:], p)
	return n, nil
}

func (s *sortSink) record(rec []byte) {
	if s.started && s.err == nil && bytes.Compare(s.prev[:], rec[:10]) > 0 {
		s.err = fmt.Errorf("output not sorted: key %x follows %x at record %d",
			rec[:10], s.prev, (s.got.bytes-int64(s.fill))/recordSize)
	}
	copy(s.prev[:], rec[:10])
	s.started = true
	s.got.digest += recordHash(rec)
}

// check compares the finished stream against the input's reference.
func (s *sortSink) check(want sortRef) error {
	switch {
	case s.err != nil:
		return s.err
	case s.fill != 0:
		return fmt.Errorf("output ends in a partial record (%d bytes)", s.fill)
	case s.got.bytes != want.bytes:
		return fmt.Errorf("output is %d bytes, input was %d", s.got.bytes, want.bytes)
	case s.got.digest != want.digest:
		return fmt.Errorf("output records are not a permutation of the input (digest %x, want %x)", s.got.digest, want.digest)
	}
	return nil
}

// cipherSink is the encrypt Sink: CRC-32C and length of the streamed
// ciphertext.
type cipherSink struct{ got cipherRef }

func (s *cipherSink) Write(p []byte) (int, error) {
	s.got.crc = crc32.Update(s.got.crc, castagnoli, p)
	s.got.bytes += int64(len(p))
	return len(p), nil
}

func (s *cipherSink) check(want cipherRef) error {
	if s.got != want {
		return fmt.Errorf("ciphertext is %d bytes crc %08x, stdlib CTR gives %d bytes crc %08x",
			s.got.bytes, s.got.crc, want.bytes, want.crc)
	}
	return nil
}

// checkCounts compares a wordcount result with the generator's
// tallies.
func checkCounts(pairs []engine.KV, want map[string]int64) error {
	if len(pairs) != len(want) {
		return fmt.Errorf("wordcount returned %d distinct words, generator wrote %d", len(pairs), len(want))
	}
	for _, kv := range pairs {
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			return fmt.Errorf("wordcount value for %q: %w", kv.Key, err)
		}
		if w, ok := want[kv.Key]; !ok || w != n {
			return fmt.Errorf("wordcount[%q] = %d, generator wrote %d", kv.Key, n, w)
		}
	}
	return nil
}

// checkPi compares a Pi result with the sum of the kernel over the
// canonical task split.
func checkPi(res *engine.Result, wantInside, wantTotal int64) error {
	if res.Inside != wantInside || res.Total != wantTotal {
		return fmt.Errorf("pi counted %d of %d inside, reference %d of %d", res.Inside, res.Total, wantInside, wantTotal)
	}
	return nil
}
