// Package cellbe is a functional model of the Cell Broadband Engine
// used by the paper's QS22 blades: one PPE plus eight SPEs, each SPE
// owning a 256 KB local store it can only fill through an MFC DMA
// engine (16 outstanding requests of at most 16 KB, 16-byte aligned).
//
// The model is functional: SPE kernels are real Go code operating on
// real bytes, and the architectural constraints (local-store capacity,
// DMA request size/queue limits, alignment) are enforced, so kernels
// written against this package are structured exactly like Cell SDK
// kernels (blocked, double-buffered). Timing is modelled separately in
// timing.go for the simulated experiments.
package cellbe

import (
	"errors"
	"fmt"
	"sort"

	"hetmr/internal/perfmodel"
)

// Local store errors.
var (
	// ErrNoSpace is returned when an allocation cannot be satisfied.
	ErrNoSpace = errors.New("cellbe: local store exhausted")
	// ErrBadSize is returned for non-positive allocation sizes.
	ErrBadSize = errors.New("cellbe: allocation size must be positive")
)

// LocalStore is an SPE's 256 KB scratchpad, managed by a first-fit
// allocator that returns 16-byte aligned buffers (the Cell requires
// "every vector operation to operate with aligned data to 16-byte
// memory boundaries").
//
// The backing bytes are allocated by the first Alloc, not by
// NewLocalStore: a chip that never runs an offload (a node whose jobs
// all take the host path) costs no scratchpad memory.
type LocalStore struct {
	size int
	buf  []byte // nil until the first Alloc
	free []span // sorted by offset, coalesced
}

type span struct{ off, size int }

// LSBuffer is an allocated region of a local store.
type LSBuffer struct {
	ls   *LocalStore
	off  int
	size int
}

// NewLocalStore creates a local store of the given capacity (use
// perfmodel.LocalStoreBytes for the real 256 KB).
func NewLocalStore(size int) *LocalStore {
	if size <= 0 {
		panic(fmt.Sprintf("cellbe: local store size %d", size))
	}
	return &LocalStore{
		size: size,
		free: []span{{0, size}},
	}
}

// Size returns the total capacity.
func (ls *LocalStore) Size() int { return ls.size }

// FreeBytes returns the total unallocated bytes (possibly fragmented).
func (ls *LocalStore) FreeBytes() int {
	total := 0
	for _, s := range ls.free {
		total += s.size
	}
	return total
}

// align16 rounds n up to the next multiple of the DMA alignment.
func align16(n int) int {
	const a = perfmodel.DMAAlignment
	return (n + a - 1) &^ (a - 1)
}

// Alloc reserves a 16-byte aligned buffer of at least size bytes.
func (ls *LocalStore) Alloc(size int) (*LSBuffer, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	need := align16(size)
	for i, s := range ls.free {
		if s.size >= need {
			if ls.buf == nil {
				ls.buf = make([]byte, ls.size)
			}
			buf := &LSBuffer{ls: ls, off: s.off, size: need}
			if s.size == need {
				ls.free = append(ls.free[:i], ls.free[i+1:]...)
			} else {
				ls.free[i] = span{s.off + need, s.size - need}
			}
			return buf, nil
		}
	}
	return nil, fmt.Errorf("%w: need %d, largest free span %d of %d total",
		ErrNoSpace, need, ls.largestFree(), ls.FreeBytes())
}

func (ls *LocalStore) largestFree() int {
	max := 0
	for _, s := range ls.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Free returns b's bytes to the allocator, coalescing with adjacent
// free spans. Freeing a buffer twice panics: that is a kernel bug.
func (ls *LocalStore) Free(b *LSBuffer) {
	if b == nil || b.ls != ls {
		panic("cellbe: freeing buffer not owned by this local store")
	}
	if b.off < 0 {
		panic("cellbe: double free of local store buffer")
	}
	s := span{b.off, b.size}
	b.off = -1 // poison
	i := sort.Search(len(ls.free), func(i int) bool { return ls.free[i].off > s.off })
	ls.free = append(ls.free, span{})
	copy(ls.free[i+1:], ls.free[i:])
	ls.free[i] = s
	// Coalesce with neighbours.
	if i+1 < len(ls.free) && ls.free[i].off+ls.free[i].size == ls.free[i+1].off {
		ls.free[i].size += ls.free[i+1].size
		ls.free = append(ls.free[:i+1], ls.free[i+2:]...)
	}
	if i > 0 && ls.free[i-1].off+ls.free[i-1].size == ls.free[i].off {
		ls.free[i-1].size += ls.free[i].size
		ls.free = append(ls.free[:i], ls.free[i+1:]...)
	}
}

// Bytes returns the buffer's backing storage (length = allocated,
// aligned size).
func (b *LSBuffer) Bytes() []byte {
	if b.off < 0 {
		panic("cellbe: use of freed local store buffer")
	}
	return b.ls.buf[b.off : b.off+b.size : b.off+b.size]
}

// Size returns the allocated (aligned) size.
func (b *LSBuffer) Size() int { return b.size }

// Offset returns the buffer's local-store address, always 16-byte
// aligned.
func (b *LSBuffer) Offset() int { return b.off }
