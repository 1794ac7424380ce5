// Package spill is the bounded-memory payload store behind the
// streaming data plane: a keyed byte store that keeps payloads in
// memory up to a configurable watermark and writes the rest, raw, one
// file per payload under a temp directory. A payload is in memory or
// in its file, never both, and reading one never moves it. Nothing is
// compressed, on disk or on the wire. One implementation backs the DFS
// block stores (internal/hdfs), the tracker-side shuffle stores
// (internal/netmr) and the live runner's sorted-run stores
// (internal/core), so every layer shares the same watermark semantics
// and the same SpillBytes meter (internal/metrics).
package spill

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"hetmr/internal/metrics"
)

// SpillAll is the watermark that spills every payload (a pure file
// store); any negative watermark means the same. A watermark of 0
// keeps every payload in memory and a positive one spills what no
// longer fits under it: the convention every layer above shares, from
// engine.Config.SpillMemBytes down.
const SpillAll int64 = -1

// entry is one stored payload: in memory (path == "") or in the raw
// file at path.
type entry struct {
	mem  []byte
	path string
	size int64
	loan *loan // the LendRanges of mem, once it has had one
}

// loan counts the LendRanges of one in-memory payload.
type loan struct {
	n       int  // lends not yet done
	dropped bool // the store let go of it: the last done releases it
}

// Store is a payload store keyed by K with a memory watermark. It is
// safe for concurrent use. Payloads returned by Get alias the store's
// in-memory copy and must not be modified.
type Store[K comparable] struct {
	mu       sync.Mutex
	baseDir  string // caller-supplied parent for the spill dir
	dir      string // created lazily on first spill
	memLimit int64
	entries  map[K]entry
	memUse   int64
	spilled  int64
	seq      int
	closed   bool
	release  func([]byte) // see OnRelease
}

// New builds a store spilling under a fresh directory inside baseDir
// ("" selects os.TempDir()). memLimit is the in-memory watermark in
// bytes: 0 never spills, SpillAll spills everything, a positive limit
// keeps payloads in memory until adding one would exceed it.
func New[K comparable](baseDir string, memLimit int64) *Store[K] {
	return &Store[K]{
		baseDir:  baseDir,
		memLimit: memLimit,
		entries:  make(map[K]entry),
	}
}

// NewStore is New with string keys, in the form the frozen benchmark
// module calls it: NewStore(dir, w, nil). Its trailing parameter is a
// Codec, a type nothing satisfies, so nil is all a caller can pass,
// and nothing reads it. NewStore and Codec survive only because
// bench/probes.go names them; they go with the next PR allowed to edit
// bench/.
func NewStore(baseDir string, memLimit int64, _ ...Codec) *Store[string] {
	return New[string](baseDir, memLimit)
}

// Codec is the type of NewStore's inert trailing parameter: spilled
// frames are raw payload bytes, and no implementation exists.
type Codec interface{ sealed() }

// OnRelease hands f every in-memory payload the store lets go of: one
// spilled to disk as Put writes it, one dropped by Delete, replaced by
// a Put or dropped by Close — the latter three only once every
// LendRange of it is done. f runs outside the store's lock.
func (s *Store[K]) OnRelease(f func([]byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release = f
}

// spillDir lazily creates the spill directory. Callers hold s.mu.
func (s *Store[K]) spillDir() (string, error) {
	if s.dir != "" {
		return s.dir, nil
	}
	base := s.baseDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "hetmr-spill-")
	if err != nil {
		return "", fmt.Errorf("spill: %w", err)
	}
	s.dir = dir
	return dir, nil
}

// Put stores data under key, replacing any previous payload. The
// store takes ownership of data: an in-memory payload is data itself,
// so the caller must not modify it afterwards, and a spilled one is
// handed to the OnRelease func once written. A caller holding borrowed
// memory (a reused buffer, a wire tail lent only until its handler
// returns) copies it first; one that owns it (a kept wire tail) need
// not.
func (s *Store[K]) Put(key K, data []byte) error {
	var freed [][]byte
	s.mu.Lock()
	defer func() { s.unlock(freed...) }()
	if s.closed {
		return fmt.Errorf("spill: put %v on closed store", key)
	}
	freed = s.dropLocked(key)
	size := int64(len(data))
	if s.memLimit == 0 || s.memLimit > 0 && s.memUse+size <= s.memLimit {
		s.entries[key] = entry{mem: data, size: size}
		s.memUse += size
		return nil
	}
	dir, err := s.spillDir()
	if err != nil {
		return err
	}
	s.seq++
	path := fmt.Sprintf("%s%cf%06d", dir, os.PathSeparator, s.seq)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		// A frame that failed part-way holds nothing anyone can read.
		os.Remove(path)
		return fmt.Errorf("spill: write frame: %w", err)
	}
	freed = append(freed, data)
	s.entries[key] = entry{path: path, size: size}
	s.spilled += size
	metrics.SpillBytes.Add(size)
	return nil
}

// lookup returns key's entry.
func (s *Store[K]) lookup(key K) (entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return entry{}, fmt.Errorf("spill: no payload under %v", key)
	}
	return e, nil
}

// Get returns the payload under key. In-memory payloads are returned
// without copying (treat them as immutable); a spilled payload is read
// whole into a buffer of its exact size — O(payload) transient memory,
// freed once the caller drops it.
func (s *Store[K]) Get(key K) ([]byte, error) {
	e, err := s.lookup(key)
	if err != nil || e.path == "" {
		return e.mem, err
	}
	return readFrame(e.path, 0, e.size)
}

// Open returns a streaming reader over key's payload: a spilled
// payload streams from its file without materializing.
func (s *Store[K]) Open(key K) (io.ReadCloser, error) {
	e, err := s.lookup(key)
	if err != nil {
		return nil, err
	}
	if e.path == "" {
		return io.NopCloser(bytes.NewReader(e.mem)), nil
	}
	f, err := os.Open(e.path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return f, nil
}

// GetRange returns up to max bytes of key's payload starting at off,
// along with the payload's total size. max <= 0 means "the rest".
// Reads past the end return an empty slice, not an error, so callers
// can detect the end by comparing off against the returned size. A
// spilled payload is read at off straight from its file. In-memory
// bytes are the store's own: a reader that may outlive a Delete of the
// key borrows them with LendRange instead.
func (s *Store[K]) GetRange(key K, off, max int64) ([]byte, int64, error) {
	data, size, done, err := s.LendRange(key, off, max)
	if err == nil {
		done()
	}
	return data, size, err
}

// LendRange is GetRange for a caller that reads the bytes after the
// store may have dropped them (a reply still being written, a merge
// still reading): an in-memory payload goes to the OnRelease func only
// once done has run, once, for every LendRange of it. A spilled
// payload's range is read as GetRange reads it, and its done does
// nothing.
func (s *Store[K]) LendRange(key K, off, max int64) (data []byte, size int64, done func(), err error) {
	if off < 0 {
		return nil, 0, nil, fmt.Errorf("spill: negative offset %d for %v", off, key)
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("spill: no payload under %v", key)
	}
	off = min(off, e.size)
	n := e.size - off
	if max > 0 {
		n = min(n, max)
	}
	if e.path != "" {
		s.mu.Unlock()
		data, err := readFrame(e.path, off, n)
		return data, e.size, func() {}, err
	}
	if e.loan == nil {
		e.loan = &loan{}
		s.entries[key] = e
	}
	l := e.loan
	l.n++
	s.mu.Unlock()
	return e.mem[off : off+n], e.size, func() {
		s.mu.Lock()
		if l.n--; l.n == 0 && l.dropped {
			s.unlock(e.mem)
			return
		}
		s.mu.Unlock()
	}, nil
}

// readFrame reads n bytes at off from the spilled frame at path.
func readFrame(path string, off, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	defer f.Close()
	out := make([]byte, n)
	if _, err := f.ReadAt(out, off); err != nil {
		return nil, fmt.Errorf("spill: read frame: %w", err)
	}
	return out, nil
}

// Size returns the payload size under key.
func (s *Store[K]) Size(key K) (int64, error) {
	e, err := s.lookup(key)
	return e.size, err
}

// Delete removes key's payload (and its spill file, if any). Deleting
// an absent key is a no-op.
func (s *Store[K]) Delete(key K) {
	s.mu.Lock()
	s.unlock(s.dropLocked(key)...)
}

// dropLocked removes one entry and returns the payload to hand to the
// OnRelease func, if any. Callers hold s.mu.
func (s *Store[K]) dropLocked(key K) [][]byte {
	e, ok := s.entries[key]
	if !ok {
		return nil
	}
	delete(s.entries, key)
	switch {
	case e.path != "":
		os.Remove(e.path)
		return nil
	case e.loan != nil && e.loan.n > 0:
		s.memUse -= e.size
		e.loan.dropped = true // its last LendRange's done releases it
		return nil
	}
	s.memUse -= e.size
	return [][]byte{e.mem}
}

// unlock releases s.mu, then hands freed to the OnRelease func, which
// so never runs under the store's lock.
func (s *Store[K]) unlock(freed ...[]byte) {
	release := s.release
	s.mu.Unlock()
	if release == nil {
		return
	}
	for _, p := range freed {
		release(p)
	}
}

// MemBytes reports the bytes currently held in memory.
func (s *Store[K]) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUse
}

// SpilledBytes reports the cumulative payload bytes spilled to disk.
func (s *Store[K]) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// Len reports the number of stored payloads.
func (s *Store[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close drops every payload, as Delete does — so the OnRelease func
// gets each in-memory one back, a lent one at its last done — and
// removes the spill directory. The store rejects further Puts; Close
// is idempotent.
func (s *Store[K]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var freed [][]byte
	for key := range s.entries {
		freed = append(freed, s.dropLocked(key)...)
	}
	dir := s.dir
	s.unlock(freed...)
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}
