package netmr

import (
	"fmt"
	"sync"

	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

// shuffleStore is a TaskTracker's data-plane store: one payload per
// task output — a map task's run of partitions, a byte-stream kernel's
// parked map or reduce output — keyed by (job, slot), held in memory up
// to a configurable watermark and spilled to raw files beyond it. A map
// run is kept with its cut offsets, and FetchPartition serves partition
// p as a range of it, from memory or spill transparently — a reducer
// cannot tell where a partition lived. Every read is a loan, so a purge
// or a Close never recycles bytes still on their way out. Every key is
// job-id-prefixed, so concurrent tenants' jobs can never collide in one
// store and a single job's state can be purged without touching its
// neighbours.
type shuffleStore struct {
	mu    sync.Mutex
	s     *spill.Store[shuffleKey]
	byJob map[int64]*jobHold // per-job slots and bytes, for GC and quotas
}

// jobHold is one job's footprint in the store: its slots, each with
// its cut offsets — where each partition starts, then the payload's
// size; an output served whole has the one partition.
type jobHold struct {
	cuts  map[partKey][]int64
	bytes int64
}

// newShuffleStore builds a store spilling under dir ("" selects the OS
// temp dir) above the memLimit watermark (spill.New's convention). A
// payload the store lets go of goes back to rpcnet's bulk class when
// it is bulk-sized (map runs, reduce outputs, ciphertext: Borrow
// buffers); a smaller one (a word run) stays with the GC, since pooled
// in the small class it would only raise the idle heap.
func newShuffleStore(dir string, memLimit int64) *shuffleStore {
	st := &shuffleStore{
		s:     spill.New[shuffleKey](dir, memLimit),
		byJob: make(map[int64]*jobHold),
	}
	st.s.OnRelease(recycleBulk)
	return st
}

// recycleBulk hands a bulk-sized buffer back to rpcnet's pool and
// leaves a smaller one to the GC.
func recycleBulk(p []byte) {
	if cap(p) >= rpcnet.BulkMin {
		rpcnet.Recycle(p)
	}
}

// shuffleKey names one payload. The job ID is the multi-tenant
// namespace: two jobs' identical slots map to distinct store keys.
type shuffleKey struct {
	job int64
	partKey
}

// put stores one task output under slot: a map run whose partitions,
// sizes long, lie back to back, or (sizes nil) an output served whole.
// The key registration and the store write happen under one lock so a
// concurrent purgeJob (a heartbeat GC racing a speculative attempt of a
// finished job) can never interleave between them and strand the
// payload outside the byJob index.
func (st *shuffleStore) put(jobID int64, slot partKey, payload []byte, sizes []int64) error {
	if sizes == nil {
		sizes = []int64{int64(len(payload))}
	}
	cuts := make([]int64, len(sizes)+1)
	for p, n := range sizes {
		cuts[p+1] = cuts[p] + n
	}
	if cuts[len(sizes)] != int64(len(payload)) {
		return fmt.Errorf("netmr: partitions of %d bytes in a %d-byte run", cuts[len(sizes)], len(payload))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.s.Put(shuffleKey{jobID, slot}, payload); err != nil {
		return err
	}
	hold := st.byJob[jobID]
	if hold == nil {
		hold = &jobHold{cuts: make(map[partKey][]int64)}
		st.byJob[jobID] = hold
	}
	// A re-issued attempt landing on the same tracker replaces its
	// earlier payload: account the superseded size away instead of
	// double-counting it against the tenant's budget.
	if old, ok := hold.cuts[slot]; ok {
		hold.bytes -= old[len(old)-1]
	}
	hold.cuts[slot] = cuts
	hold.bytes += int64(len(payload))
	return nil
}

// slotOf returns the store slot holding the piece a FetchPartition
// names, and which partition of it that is: partition part of map task
// mapTask's output, or — mapTask -1 — all of a reduce task's.
func slotOf(k partKey) (slot partKey, piece int) {
	if k.mapTask >= 0 {
		return mapOutputKey(k.mapTask), max(k.part, 0)
	}
	return streamedReduceKey(k.part), 0
}

// lend lends up to maxBytes (<= 0: the rest) from off of the piece k
// names, plus the piece's size. done ends the loan; a spilled piece's
// range is one read at its offset in the payload's file.
func (st *shuffleStore) lend(jobID int64, k partKey, off, maxBytes int64) (data []byte, size int64, done func(), err error) {
	slot, piece := slotOf(k)
	st.mu.Lock()
	var cuts []int64
	if hold := st.byJob[jobID]; hold != nil {
		cuts = hold.cuts[slot]
	}
	st.mu.Unlock()
	if piece+1 >= len(cuts) {
		return nil, 0, nil, fmt.Errorf("no piece %d of job %d task output %v", piece, jobID, slot)
	}
	size = cuts[piece+1] - cuts[piece]
	off = min(max(off, 0), size)
	n := size - off
	if maxBytes > 0 {
		n = min(n, maxBytes)
	}
	if n == 0 {
		return nil, size, func() {}, nil // LendRange would read 0 as "the rest"
	}
	data, _, done, err = st.s.LendRange(shuffleKey{jobID, slot}, cuts[piece]+off, n)
	return data, size, done, err
}

// purgeJob drops every payload a finished job left behind. Held under
// the same lock as put (see there); deletes are cheap (map removal or
// file unlink), and a payload still lent goes back at its last done.
func (st *shuffleStore) purgeJob(jobID int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	hold := st.byJob[jobID]
	if hold == nil {
		return
	}
	for slot := range hold.cuts {
		st.s.Delete(shuffleKey{jobID, slot})
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

// close drops everything, handing what it held back as purgeJob does,
// and removes the spill directory.
func (st *shuffleStore) close() error { return st.s.Close() }
