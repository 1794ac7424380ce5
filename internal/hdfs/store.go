package hdfs

import (
	"strconv"

	"hetmr/internal/spill"
)

// BlockStore holds block payloads. The NameNode stores each block's
// payload exactly once, no matter how many replicas reference it — a
// replica is placement metadata, the payload is immutable — so the
// store's memory watermark bounds the DFS's resident size, not the
// replication factor times it.
//
// Implementations must be safe for concurrent use. Payloads returned
// by Get may alias the stored copy and must be treated as immutable.
// (Reads are block-granular on purpose: Reader streams a file block
// by block, holding one O(blockSize) payload at a time.)
type BlockStore interface {
	// Put stores a block payload (replacing any previous payload —
	// block IDs are never reused, so that only happens on re-write). The
	// store takes ownership of data.
	Put(id BlockID, data []byte) error
	// Get returns the whole payload.
	Get(id BlockID) ([]byte, error)
	// Delete drops the payload.
	Delete(id BlockID)
	// Close releases the store's resources (spill files).
	Close() error
}

// spillBlockStore adapts spill.Store to the BlockStore interface.
type spillBlockStore struct {
	s *spill.Store
}

func blockKey(id BlockID) string { return strconv.FormatInt(int64(id), 10) }

func (b spillBlockStore) Put(id BlockID, data []byte) error { return b.s.Put(blockKey(id), data) }
func (b spillBlockStore) Get(id BlockID) ([]byte, error)    { return b.s.Get(blockKey(id)) }
func (b spillBlockStore) Delete(id BlockID)                 { b.s.Delete(blockKey(id)) }
func (b spillBlockStore) Close() error                      { return b.s.Close() }

// NewMemBlockStore builds the default all-in-memory block store — the
// historical hdfs behaviour.
func NewMemBlockStore() BlockStore {
	return spillBlockStore{s: spill.NewStore("", 0, nil)}
}

// NewSpillBlockStore builds a disk-backed block store: payloads stay
// in memory up to memLimit bytes and spill to files under a fresh
// directory inside dir ("" selects the OS temp dir) beyond it, through
// codec when non-nil. memLimit follows spill.NewStore's convention,
// the one every spill-configured layer shares: 0 keeps every block in
// memory, spill.SpillAll spills every block (a pure file store). This
// is what lets the live runner stage and read datasets far larger than
// RAM with O(blockSize) resident memory.
func NewSpillBlockStore(dir string, memLimit int64, codec spill.Codec) BlockStore {
	return spillBlockStore{s: spill.NewStore(dir, memLimit, codec)}
}
