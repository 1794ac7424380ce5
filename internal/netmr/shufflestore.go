package netmr

import (
	"sync"

	"hetmr/internal/spill"
)

// shuffleStore is a TaskTracker's data-plane store: map-side
// partitions and streamed task outputs, keyed by (job, map task,
// partition), held in memory up to a configurable watermark and
// spilled to raw files beyond it. FetchPartition serves from memory or
// spill transparently — a reducer cannot tell where a partition lived.
// Every key is job-id-prefixed, so concurrent tenants' jobs can never
// collide in one store and a single job's state can be purged without
// touching its neighbours.
type shuffleStore struct {
	mu    sync.Mutex
	s     *spill.Store[shuffleKey]
	byJob map[int64]*jobHold // per-job keys and bytes, for GC and quotas
}

// jobHold is one job's footprint in the store.
type jobHold struct {
	keys  []partKey
	bytes int64
}

// newShuffleStore builds a store spilling under dir ("" selects the OS
// temp dir) above the memLimit watermark (spill.New's convention).
func newShuffleStore(dir string, memLimit int64) *shuffleStore {
	return &shuffleStore{
		s:     spill.New[shuffleKey](dir, memLimit),
		byJob: make(map[int64]*jobHold),
	}
}

// shuffleKey names one payload. The job ID is the multi-tenant
// namespace: two jobs' identical (map, part) coordinates map to
// distinct store keys.
type shuffleKey struct {
	job int64
	partKey
}

// put stores one payload. The key registration and the store write
// happen under one lock so a concurrent purgeJob (a heartbeat GC
// racing a speculative attempt of a finished job) can never interleave
// between them and strand the payload outside the byJob index.
func (st *shuffleStore) put(jobID int64, k partKey, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	key := shuffleKey{jobID, k}
	// A re-issued attempt landing on the same tracker replaces its
	// earlier payload: account the superseded size away instead of
	// double-counting it against the tenant's budget.
	replaced, sizeErr := st.s.Size(key)
	if err := st.s.Put(key, payload); err != nil {
		return err
	}
	hold := st.byJob[jobID]
	if hold == nil {
		hold = &jobHold{}
		st.byJob[jobID] = hold
	}
	if sizeErr == nil { // key already held (possibly zero-length)
		hold.bytes -= replaced
	} else {
		hold.keys = append(hold.keys, k)
	}
	hold.bytes += int64(len(payload))
	return nil
}

// get fetches one payload (from memory or spill).
func (st *shuffleStore) get(jobID int64, k partKey) ([]byte, bool) {
	data, err := st.s.Get(shuffleKey{jobID, k})
	if err != nil {
		return nil, false
	}
	return data, true
}

// getRange fetches up to max bytes of one payload starting at off,
// plus the payload's total size — the chunked FetchPartition serving
// path. A spilled partition's chunk is one read at its offset in the
// partition's file.
func (st *shuffleStore) getRange(jobID int64, k partKey, off, max int64) ([]byte, int64, bool) {
	data, size, err := st.s.GetRange(shuffleKey{jobID, k}, off, max)
	if err != nil {
		return nil, 0, false
	}
	return data, size, true
}

// purgeJob drops every payload a finished job left behind. Held under
// the same lock as put (see there); deletes are cheap (map removal or
// file unlink).
func (st *shuffleStore) purgeJob(jobID int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	hold := st.byJob[jobID]
	if hold == nil {
		return
	}
	for _, k := range hold.keys {
		st.s.Delete(shuffleKey{jobID, k})
	}
	delete(st.byJob, jobID)
}

// held lists jobs with payloads in the store and the resident bytes
// behind each — the heartbeat's HeldJobs/HeldBytes pair, which feeds
// both the JobTracker's GC protocol and its per-tenant spill-budget
// accounting.
func (st *shuffleStore) held() ([]int64, map[int64]int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.byJob) == 0 {
		return nil, nil
	}
	ids := make([]int64, 0, len(st.byJob))
	bytes := make(map[int64]int64, len(st.byJob))
	for id, hold := range st.byJob {
		ids = append(ids, id)
		bytes[id] = hold.bytes
	}
	return ids, bytes
}

// jobBytes reports one job's resident bytes (0 when the store holds
// nothing for it).
func (st *shuffleStore) jobBytes(jobID int64) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if hold := st.byJob[jobID]; hold != nil {
		return hold.bytes
	}
	return 0
}

// spilledBytes reports the cumulative payload bytes this store sent to
// disk.
func (st *shuffleStore) spilledBytes() int64 { return st.s.SpilledBytes() }

// close drops everything and removes the spill directory.
func (st *shuffleStore) close() error { return st.s.Close() }
