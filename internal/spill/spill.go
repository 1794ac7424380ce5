// Package spill is the bounded-memory payload store behind the
// streaming data plane: a keyed byte store that keeps payloads in
// memory up to a configurable watermark and spills the rest to files
// under a temp directory, optionally compressed frame by frame through
// a Codec (Flate). Codec is a spill-frame seam only: nothing on the
// wire is compressed. One
// implementation backs the DFS block stores (internal/hdfs), the
// tracker-side shuffle stores (internal/netmr) and the live runner's
// sorted-run stores (internal/core), so every layer shares the same
// watermark semantics and the same SpillBytes meter
// (internal/metrics).
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

// entry is one stored payload: in memory, spilled to a file, or both
// (a spilled payload re-admitted into the hot cache keeps its frame on
// disk so eviction is free).
type entry struct {
	mem  []byte
	path string // spilled frame ("" while in memory)
	size int64  // payload size, pre-compression
	hot  bool   // re-admitted cache copy (evictable; file remains)
	use  int64  // LRU clock tick of the last access (hot entries)
}

// Store is a keyed payload store with a memory watermark. It is safe
// for concurrent use. Payloads returned by Get alias the store's
// in-memory copy and must not be modified.
type Store struct {
	mu       sync.Mutex
	baseDir  string // caller-supplied parent for the spill dir
	dir      string // created lazily on first spill
	memLimit int64
	codec    Codec
	entries  map[string]entry
	memUse   int64
	spilled  int64
	readmit  int64 // cumulative bytes promoted back into memory
	clock    int64 // LRU clock for hot-entry eviction
	seq      int
	closed   bool
}

// NewStore builds a store spilling under a fresh directory inside
// baseDir ("" selects os.TempDir()). memLimit is the in-memory
// watermark in bytes: 0 never spills, SpillAll spills everything, a
// positive limit keeps payloads in memory until adding one would
// exceed it. codec, when non-nil, compresses spilled
// frames (in-memory payloads are never compressed).
func NewStore(baseDir string, memLimit int64, codec Codec) *Store {
	return &Store{
		baseDir:  baseDir,
		memLimit: memLimit,
		codec:    codec,
		entries:  make(map[string]entry),
	}
}

// spillDir lazily creates the spill directory. Callers hold s.mu.
func (s *Store) spillDir() (string, error) {
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
// so the caller must not modify it afterwards. A caller holding
// borrowed memory (a reused buffer, a wire tail) copies it first.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("spill: put %q on closed store", key)
	}
	s.dropLocked(key)
	size := int64(len(data))
	// New primary payloads outrank cached re-admissions: evict hot
	// copies (their frames stay on disk) before deciding to spill.
	if s.memLimit > 0 && s.memUse+size > s.memLimit {
		s.evictHotLocked(size)
	}
	if s.memLimit == 0 || s.memUse+size <= s.memLimit {
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
	if err := s.writeFrame(path, data); err != nil {
		return err
	}
	s.entries[key] = entry{path: path, size: size}
	s.spilled += size
	metrics.SpillBytes.Add(size)
	return nil
}

// writeFrame writes one payload to path, through the codec when set.
func (s *Store) writeFrame(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	var w io.Writer = f
	var cw io.WriteCloser
	if s.codec != nil {
		cw = s.codec.NewWriter(f)
		w = cw
	}
	if _, err := w.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("spill: write frame: %w", err)
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			f.Close()
			return fmt.Errorf("spill: close frame: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Get returns the payload under key. In-memory payloads are returned
// without copying (treat them as immutable); spilled payloads are read
// back whole — O(payload) transient memory, freed once the caller
// drops it.
func (s *Store) Get(key string) ([]byte, error) {
	r, err := s.Open(key)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if br, ok := r.(*memReader); ok {
		return br.data, nil
	}
	return io.ReadAll(r)
}

// memReader serves an in-memory payload; Get short-circuits it to
// avoid a copy.
type memReader struct {
	bytes.Reader
	data []byte
}

func (*memReader) Close() error { return nil }

// Open returns a streaming reader over key's payload — the chunked
// read path: a spilled payload streams from its file (through the
// codec) without materializing. Hot spilled payloads that fit under
// the watermark are re-admitted into memory first (see GetRange), so
// repeated opens of the same partition are served from the cache.
func (s *Store) Open(key string) (io.ReadCloser, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	codec := s.codec
	// An empty in-memory payload has a nil mem slice; no path means it
	// was never spilled, so it still serves from memory.
	if ok && (e.mem != nil || e.path == "") {
		s.touchLocked(key, e)
		s.mu.Unlock()
		r := &memReader{data: e.mem}
		r.Reset(e.mem)
		return r, nil
	}
	readmit := ok && s.memLimit > 0 && e.size <= s.memLimit
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spill: no payload under %q", key)
	}
	if readmit {
		if data, err := s.readmitSpilled(key, e); err == nil {
			r := &memReader{data: data}
			r.Reset(data)
			return r, nil
		}
		// Fall through to the streaming path on any re-admission
		// failure — serving the read matters more than caching it.
	}
	f, err := os.Open(e.path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	if codec == nil {
		return f, nil
	}
	cr, err := codec.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: open frame: %w", err)
	}
	return &frameReader{ReadCloser: cr, file: f}, nil
}

// GetRange returns up to max bytes of key's payload starting at off,
// along with the payload's total size — the primitive behind chunked
// FetchPartition serving. max <= 0 means "the rest". Reads past the
// end return an empty slice, not an error, so callers can detect the
// end by comparing off against the returned size. A spilled payload is
// re-admitted into the hot cache when it fits under the watermark, so
// a reducer's repeated chunk fetches decompress the frame once, not
// once per chunk.
func (s *Store) GetRange(key string, off, max int64) ([]byte, int64, error) {
	if off < 0 {
		return nil, 0, fmt.Errorf("spill: negative offset %d for %q", off, key)
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && (e.mem != nil || e.path == "") {
		s.touchLocked(key, e)
		s.mu.Unlock()
		return sliceRange(e.mem, off, max), e.size, nil
	}
	readmit := ok && s.memLimit > 0 && e.size <= s.memLimit
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("spill: no payload under %q", key)
	}
	if readmit {
		if data, err := s.readmitSpilled(key, e); err == nil {
			return sliceRange(data, off, max), e.size, nil
		}
	}
	// Too big for the cache (or the store spills everything): read the window
	// straight from the frame.
	f, err := os.Open(e.path)
	if err != nil {
		return nil, 0, fmt.Errorf("spill: %w", err)
	}
	defer f.Close()
	if off > e.size {
		off = e.size
	}
	n := e.size - off
	if max > 0 && max < n {
		n = max
	}
	out := make([]byte, n)
	if s.codec == nil {
		// An uncompressed frame is the payload: seek, don't stream.
		if _, err := f.ReadAt(out, off); err != nil {
			return nil, 0, fmt.Errorf("spill: read frame range: %w", err)
		}
		return out, e.size, nil
	}
	cr, err := s.codec.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("spill: open frame: %w", err)
	}
	defer cr.Close()
	// A codec frame has no random access: discard the prefix.
	if _, err := io.CopyN(io.Discard, cr, off); err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("spill: seek frame: %w", err)
	}
	if _, err := io.ReadFull(cr, out); err != nil {
		return nil, 0, fmt.Errorf("spill: read frame range: %w", err)
	}
	return out, e.size, nil
}

// sliceRange views [off, off+max) of data, clamped to its bounds.
func sliceRange(data []byte, off, max int64) []byte {
	if off >= int64(len(data)) {
		return nil
	}
	end := int64(len(data))
	if max > 0 && off+max < end {
		end = off + max
	}
	return data[off:end]
}

// touchLocked bumps key's LRU clock. Callers hold s.mu.
func (s *Store) touchLocked(key string, e entry) {
	s.clock++
	e.use = s.clock
	s.entries[key] = e
}

// evictHotLocked evicts least-recently-used hot cache copies until
// need more bytes fit under the watermark or no hot entries remain
// (their spill frames stay on disk, so eviction never loses data).
// It reports whether the headroom was achieved. Callers hold s.mu.
func (s *Store) evictHotLocked(need int64) bool {
	for s.memUse+need > s.memLimit {
		victim := ""
		var oldest int64
		for k, e := range s.entries {
			if e.hot && (victim == "" || e.use < oldest) {
				victim, oldest = k, e.use
			}
		}
		if victim == "" {
			return false
		}
		e := s.entries[victim]
		e.mem = nil
		e.hot = false
		s.entries[victim] = e
		s.memUse -= e.size
	}
	return true
}

// readmitSpilled reads a spilled frame whole and promotes it into the
// hot cache if headroom can be made by evicting colder cache copies.
// The headroom is made before the read is paid for: under a watermark
// full of primary payloads nothing can be cached, and the caller's
// streaming path serves the read without materializing the frame. The
// frame stays on disk either way; a returned payload is valid even when
// a racing Put took the headroom back.
func (s *Store) readmitSpilled(key string, e entry) ([]byte, error) {
	s.mu.Lock()
	room := s.evictHotLocked(e.size)
	s.mu.Unlock()
	if !room {
		return nil, fmt.Errorf("spill: no headroom to re-admit %q", key)
	}
	data, err := s.readFrame(e.path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[key]
	if !ok || cur.path != e.path || cur.mem != nil {
		// Deleted, replaced, or raced with another re-admission; serve
		// what we read without touching the cache.
		if ok && cur.mem != nil {
			return cur.mem, nil
		}
		return data, nil
	}
	if s.evictHotLocked(cur.size) {
		cur.mem = data
		cur.hot = true
		s.memUse += cur.size
		s.readmit += cur.size
		s.touchLocked(key, cur)
	}
	return data, nil
}

// readFrame reads one spilled frame whole, through the codec when set.
func (s *Store) readFrame(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if s.codec != nil {
		cr, err := s.codec.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("spill: open frame: %w", err)
		}
		defer cr.Close()
		r = cr
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spill: read frame: %w", err)
	}
	return data, nil
}

// frameReader closes both the codec stream and the underlying file.
type frameReader struct {
	io.ReadCloser
	file *os.File
}

func (r *frameReader) Close() error {
	err := r.ReadCloser.Close()
	if ferr := r.file.Close(); err == nil {
		err = ferr
	}
	return err
}

// Size returns the payload size under key (pre-compression).
func (s *Store) Size(key string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return 0, fmt.Errorf("spill: no payload under %q", key)
	}
	return e.size, nil
}

// Delete removes key's payload (and its spill file, if any). Deleting
// an absent key is a no-op.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(key)
}

// dropLocked removes one entry. Callers hold s.mu.
func (s *Store) dropLocked(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	if e.mem != nil {
		s.memUse -= e.size
	}
	if e.path != "" {
		os.Remove(e.path)
	}
	delete(s.entries, key)
}

// MemBytes reports the bytes currently held in memory.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUse
}

// SpilledBytes reports the cumulative payload bytes spilled to disk
// (pre-compression).
func (s *Store) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// ReadmittedBytes reports the cumulative payload bytes promoted from
// spill frames back into the hot in-memory cache.
func (s *Store) ReadmittedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readmit
}

// Len reports the number of stored payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close drops every payload and removes the spill directory. The
// store rejects further Puts; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.entries = make(map[string]entry)
	s.memUse = 0
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}
