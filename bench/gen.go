package main

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
)

// Input generators. The -seed reaches only this file: every dataset is
// a pure function of (seed, size), written once to a file under the
// harness temp dir so that jobs read it as Job.Source and neither the
// generator's CPU nor the input's heap is measured. Each generator
// computes the job-independent reference the verifier needs in the
// same pass.

// rng is splitmix64: fast enough that 100 MB of records cost ~0.1 s.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		v := r.next()
		p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		p[4], p[5], p[6], p[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		p = p[8:]
	}
	if len(p) > 0 {
		v := r.next()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// genChunk is the generation batch: a whole number of 100-byte
// records and of AES blocks.
const genChunk = 1_600_000

// recordSize is the terasort record length (10-byte key first).
const recordSize = 100

// sortRef is the reference for a terasort output: an order-independent
// multiset digest (sum of per-record hashes) and the byte count.
type sortRef struct {
	digest uint64
	bytes  int64
}

// recordHash is FNV-1a over the record taken eight bytes at a time (the
// byte-wise form costs 3 % of a terasort job in the sink; this one is
// not measurable).
func recordHash(rec []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i+8 <= len(rec); i += 8 {
		w := uint64(rec[i]) | uint64(rec[i+1])<<8 | uint64(rec[i+2])<<16 | uint64(rec[i+3])<<24 |
			uint64(rec[i+4])<<32 | uint64(rec[i+5])<<40 | uint64(rec[i+6])<<48 | uint64(rec[i+7])<<56
		h = (h ^ w) * 1099511628211
	}
	for _, b := range rec[len(rec)&^7:] {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// writeChunks drives a generator: fill is called with successive
// buffers until size bytes are written to path.
func writeChunks(path string, size int64, fill func(p []byte)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := make([]byte, genChunk)
	for off := int64(0); off < size; {
		p := buf
		if size-off < int64(len(p)) {
			p = p[:size-off]
		}
		fill(p)
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
		off += int64(len(p))
	}
	return f.Close()
}

// genRecords writes size bytes (a multiple of 100) of uniformly random
// terasort records and returns their multiset digest.
func genRecords(path string, seed uint64, size int64) (sortRef, error) {
	if size%recordSize != 0 {
		return sortRef{}, fmt.Errorf("record dataset size %d is not a multiple of %d", size, recordSize)
	}
	r := rng{s: seed}
	ref := sortRef{bytes: size}
	err := writeChunks(path, size, func(p []byte) {
		r.fill(p)
		for i := 0; i < len(p); i += recordSize {
			ref.digest += recordHash(p[i : i+recordSize])
		}
	})
	return ref, err
}

// benchKey is the AES-128 key of every encrypt job; the IV is zero.
var benchKey = []byte("hetmr-bench-key!")

// cipherRef is the reference for an encrypt output: CRC-32C and length
// of the ciphertext stdlib crypto/cipher CTR produces for the input.
// (CRC-32C rather than CRC-64: it is hardware-accelerated, so the sink
// that checks 128 MB per job stays under 1 % of the job.)
type cipherRef struct {
	crc   uint32
	bytes int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// genPlaintext writes size random bytes and returns the reference for
// their AES-128-CTR encryption under benchKey and a zero IV.
func genPlaintext(path string, seed uint64, size int64) (cipherRef, error) {
	block, err := aes.NewCipher(benchKey)
	if err != nil {
		return cipherRef{}, err
	}
	stream := cipher.NewCTR(block, make([]byte, aes.BlockSize))
	r := rng{s: seed}
	ref := cipherRef{bytes: size}
	ct := make([]byte, genChunk)
	err = writeChunks(path, size, func(p []byte) {
		r.fill(p)
		stream.XORKeyStream(ct[:len(p)], p)
		ref.crc = crc32.Update(ref.crc, castagnoli, ct[:len(p)])
	})
	return ref, err
}

// vocabSize and zipfS shape the wordcount text: Zipf(1.2) over 5 000
// words, so a handful of words dominate (the combiner collapses them)
// while the tail keeps the hash map at a realistic size.
const (
	vocabSize = 5000
	zipfS     = 1.2
)

// vocabulary returns vocabSize distinct lowercase words of 3 to 12
// letters. It is fixed, not seeded: the seed picks which words appear
// where, not what the words are.
func vocabulary() [][]byte {
	words := make([][]byte, vocabSize)
	r := rng{s: 2009}
	for i := range words {
		// A base-26 rendering of i (distinct by construction) padded
		// with random letters to a spread of lengths.
		w := []byte{byte('a' + i%26), byte('a' + i/26%26), byte('a' + i/676%26)}
		for extra := int(r.next() % 10); extra > 0; extra-- {
			w = append(w, byte('a'+r.next()%26))
		}
		words[i] = w
	}
	return words
}

// genText writes size bytes of space-separated Zipf-distributed words
// and returns how often each was written. No word straddles a
// multiple of blockSize (the gap is filled with spaces): the system
// counts per block, so a straddling word would be counted as two
// halves, and the tallies here would no longer be the reference.
func genText(path string, seed uint64, size, blockSize int64) (map[string]int64, error) {
	words := vocabulary()
	cdf := make([]float64, vocabSize)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = sum
	}
	r := rng{s: seed}
	counts := make([]int64, vocabSize)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for off := int64(0); off < size; {
		k := sort.SearchFloat64s(cdf, r.float()*sum)
		word := words[k]
		room := blockSize - off%blockSize
		if size-off < room {
			room = size - off
		}
		if int64(len(word)) >= room {
			// Would touch the boundary: pad to it instead.
			for ; room > 0; room-- {
				w.WriteByte(' ')
				off++
			}
			continue
		}
		w.Write(word)
		w.WriteByte(' ')
		off += int64(len(word)) + 1
		counts[k]++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ref := make(map[string]int64)
	for k, n := range counts {
		if n > 0 {
			ref[string(words[k])] = n
		}
	}
	return ref, nil
}
