package core

import (
	"fmt"
	"io"
	"sync"

	"hetmr/internal/kernels"
)

// Distributed TeraSort-style sort on the live runner: each input block
// is sorted on the node that stores it (map phase), the sorted runs
// land in a spill-bounded run store, and an external k-way merge
// streams them into the caller's writer (reduce-side merge). The paper
// uses the Terasort contest (§IV-A) to argue mappers are record-
// delivery-bound; this job is the workload behind that argument. With
// a positive Config.SpillMem watermark, the whole sort — input blocks,
// runs, merge — runs in O(blockSize × mappers) memory, so datasets far
// larger than RAM sort through the disk.

// RunSort sorts a stored file of 100-byte TeraSort records and merges
// the result into w. The DFS block size must be a multiple of the
// record size so records never straddle blocks.
func (c *LiveCluster) RunSort(input string, w io.Writer) error {
	if c.FS.BlockSize()%kernels.SortRecordBytes != 0 {
		return fmt.Errorf("core: block size %d is not a multiple of the %d-byte record",
			c.FS.BlockSize(), kernels.SortRecordBytes)
	}
	work, err := c.planBlocks(input)
	if err != nil {
		return err
	}
	// Map phase: sort each block where it lives (or wherever the
	// scheduler migrates it — a sorted run depends only on the block).
	// The commit hook spills each winning run to the run store, so no
	// resident slice ever holds every run at once.
	runStore := c.newRunStore()
	defer runStore.Close()
	var commitErrMu sync.Mutex
	var commitErr error
	err = c.runBlocks(work, func(w blockWork, _ *LiveNode, data []byte) (any, error) {
		run, err := kernels.SortedRecords(data)
		if err != nil {
			return nil, fmt.Errorf("core: sort block %d: %w", w.index, err)
		}
		return run, nil
	}, func(task int, result any) {
		if err := runStore.Put(work[task].index, result.([]byte)); err != nil {
			commitErrMu.Lock()
			if commitErr == nil {
				commitErr = err
			}
			commitErrMu.Unlock()
		}
	})
	if err != nil {
		return err
	}
	if commitErr != nil {
		return fmt.Errorf("core: sort %q: %w", input, commitErr)
	}
	// Reduce phase: external k-way merge over the spilled runs,
	// streamed straight into w.
	readers := make([]io.Reader, len(work))
	for i := range work {
		rc, err := runStore.Open(work[i].index)
		if err != nil {
			return err
		}
		defer rc.Close()
		readers[i] = rc
	}
	_, err = kernels.MergeSortedStreams(w, readers...)
	return err
}
