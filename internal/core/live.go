package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hetmr/internal/hdfs"
	"hetmr/internal/kernels"
	"hetmr/internal/sched"
	"hetmr/internal/spurt"
)

// This file is the live (functional) two-level runner: jobs execute on
// real bytes with goroutine-backed nodes, and accelerated jobs push
// their record blocks through the node's SPE runtime. It mirrors the
// prototype of paper §III: level 1 distributes blocks over nodes with
// locality preference and bounded mapper slots; level 2 is the
// intra-node SPE distribution. Level 1 runs on the dynamic scheduler
// (internal/sched): every node pulls the blocks it stores first and
// then any pending block (a remote read, as in Hadoop's non-local
// tasks), and with speculation enabled a straggling in-flight task is
// duplicated, first finish winning.

// blockWork describes one block assignment for the live mappers.
type blockWork struct {
	index  int
	offset int64
	node   *LiveNode
	id     hdfs.BlockID
	host   string
}

// planBlocks assigns each block of the input to a node, preferring the
// node that holds the block (level-1 locality scheduling).
func (c *LiveCluster) planBlocks(input string) ([]blockWork, error) {
	locs, err := c.FS.Locations(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoInput, err)
	}
	var work []blockWork
	for i, loc := range locs {
		host := loc.Hosts[0]
		node, ok := c.nodeByName(host)
		if !ok {
			// Replica on an unknown node (e.g. master): round-robin.
			node = c.Nodes[i%len(c.Nodes)]
		}
		work = append(work, blockWork{
			index:  i,
			offset: loc.Offset,
			node:   node,
			id:     loc.Block,
			host:   host,
		})
	}
	return work, nil
}

// schedWorkers builds the scheduler's view of the cluster: one worker
// per node, MappersPerNode slots each.
func (c *LiveCluster) schedWorkers() []sched.Worker {
	workers := make([]sched.Worker, len(c.Nodes))
	for i, n := range c.Nodes {
		workers[i] = sched.Worker{ID: n.Name, Slots: c.cfg.MappersPerNode}
	}
	return workers
}

// stall applies the node's injected straggler delay, if any.
func (c *LiveCluster) stall(node int) {
	if c.cfg.TaskDelays != nil && c.cfg.TaskDelays[node] > 0 {
		time.Sleep(c.cfg.TaskDelays[node])
	}
}

// runBlocks executes fn over every input block on the dynamic
// scheduler. Each block task is homed on the node storing the block;
// fn receives the node actually executing the attempt (which differs
// from the home for remote grants and speculation) and must return a
// result that depends only on the block — the scheduler commits the
// first finished attempt of each task, handing its result to onCommit
// exactly once per block, so no job ever holds every block's result at
// once. The run's stats are retained for LastStats.
func (c *LiveCluster) runBlocks(work []blockWork,
	fn func(w blockWork, node *LiveNode, data []byte) (any, error),
	onCommit func(task int, result any)) error {
	nodeIndex := make(map[*LiveNode]int, len(c.Nodes))
	for i, n := range c.Nodes {
		nodeIndex[n] = i
	}
	tasks := make([]sched.Task, len(work))
	for i, w := range work {
		tasks[i] = sched.Task{Home: nodeIndex[w.node]}
	}
	exec := func(worker, task int) (any, error) {
		c.stall(worker)
		w := work[task]
		data, err := c.FS.ReadBlock(w.id, w.host)
		if err != nil {
			return nil, fmt.Errorf("core: read block %d: %w", w.id, err)
		}
		return fn(w, c.Nodes[worker], data)
	}
	opts := c.cfg.Sched
	opts.OnCommit = onCommit
	_, stats, err := sched.Run(c.schedWorkers(), tasks, exec, opts)
	c.lastStats = stats
	return err
}

// RunWordCount counts the words of a stored file. Each block is
// counted into its own kernels.WordTable, and the commit hook merges
// the winning table into the job's one table, so a speculative
// duplicate never counts a block twice.
func (c *LiveCluster) RunWordCount(input string) (map[string]int64, error) {
	work, err := c.planBlocks(input)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var total kernels.WordTable
	err = c.runBlocks(work, func(_ blockWork, _ *LiveNode, data []byte) (any, error) {
		var counts kernels.WordTable
		counts.Add(data)
		return &counts, nil
	}, func(_ int, result any) {
		mu.Lock()
		total.Merge(result.(*kernels.WordTable))
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	total.Each(func(w string, n int64) { counts[w] = n })
	return counts, nil
}

// StreamJob transforms a stored file record-by-record (the encryption
// workload shape): each block is processed on its hosting node, via
// the SPE runtime when Accelerated.
type StreamJob struct {
	Name  string
	Input string
	// Kernel is the block transformation (e.g. AES-CTR).
	Kernel spurt.BlockKernel
	// Accelerated selects the level-2 SPE offload path; otherwise the
	// kernel runs on the node's host core (the "Java" path).
	Accelerated bool
}

// RunStream executes a stream job and copies the transformed blocks
// into w in file order.
func (c *LiveCluster) RunStream(job *StreamJob, w io.Writer) error {
	if job.Kernel == nil {
		return fmt.Errorf("core: stream job %q needs a kernel", job.Name)
	}
	work, err := c.planBlocks(job.Input)
	if err != nil {
		return err
	}
	// The transformed block is the task result: whichever node's
	// attempt wins (the accelerated and host paths are bit-identical,
	// so remotely granted or speculated blocks transform the same). Committed
	// blocks land in a spill-bounded run store instead of a resident
	// slice, so the job's peak memory is O(blockSize × mappers), not
	// O(input).
	outStore := c.newRunStore()
	defer outStore.Close()
	var commitErrMu sync.Mutex
	var commitErr error
	err = c.runBlocks(work, func(w blockWork, node *LiveNode, data []byte) (any, error) {
		out := make([]byte, len(data))
		if job.Accelerated && node.Accel != nil {
			if err := node.Accel.Stream(offsetKernel{job.Kernel, w.offset}, data, out); err != nil {
				return nil, fmt.Errorf("core: accelerated stream on block %d: %w", w.index, err)
			}
			return out, nil
		}
		// Host path: the whole block at its file offset. The kernel is
		// offset-aware (CTR seeks), so this matches the SPE path's
		// 4 KB blocks byte for byte.
		copy(out, data)
		if err := job.Kernel.ProcessBlock(out, w.offset); err != nil {
			return nil, fmt.Errorf("core: host stream on block %d: %w", w.index, err)
		}
		return out, nil
	}, func(task int, result any) {
		if err := outStore.Put(work[task].index, result.([]byte)); err != nil {
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
		return fmt.Errorf("core: stream job %q: %w", job.Name, commitErr)
	}
	// Deliver in block order, streaming each transformed block out of
	// the run store.
	for i := range work {
		rc, err := outStore.Open(work[i].index)
		if err != nil {
			return err
		}
		_, err = io.Copy(w, rc)
		rc.Close()
		if err != nil {
			return err
		}
		outStore.Delete(work[i].index)
	}
	return nil
}

// offsetKernel rebases a block kernel's offsets to the block's
// position within the whole file (the SPE runtime reports offsets
// relative to its input buffer).
type offsetKernel struct {
	inner spurt.BlockKernel
	base  int64
}

// Name implements spurt.BlockKernel.
func (k offsetKernel) Name() string { return k.inner.Name() }

// ProcessBlock implements spurt.BlockKernel.
func (k offsetKernel) ProcessBlock(block []byte, offset int64) error {
	return k.inner.ProcessBlock(block, k.base+offset)
}

// RunPiTasks draws each canonical Monte Carlo task
// (kernels.SampleSplit) on the host core of a cluster node — placed by
// the dynamic scheduler, bounded by each node's mapper slots — and
// returns the aggregate inside/total counts. Each task's count depends
// only on its seed — not on the node drawing it — which is what makes
// results bit-identical across engine backends and under remote
// grants, speculation and re-runs.
func (c *LiveCluster) RunPiTasks(tasks []kernels.SampleSplit) (inside, total int64, err error) {
	for i, t := range tasks {
		if t.Samples <= 0 {
			return 0, 0, fmt.Errorf("core: pi task %d has %d samples", i, t.Samples)
		}
	}
	sTasks := make([]sched.Task, len(tasks))
	for i := range sTasks {
		sTasks[i] = sched.Task{Home: -1} // compute tasks have no data home
	}
	exec := func(worker, task int) (any, error) {
		c.stall(worker)
		return kernels.CountInside(tasks[task].Seed, tasks[task].Samples), nil
	}
	opts := c.cfg.Sched
	opts.OnCommit = nil // results fold below, in task order
	results, stats, err := sched.Run(c.schedWorkers(), sTasks, exec, opts)
	c.lastStats = stats
	if err != nil {
		return 0, 0, err
	}
	// Fold in task order: the totals are independent of which node won
	// each attempt.
	for i, res := range results {
		inside += res.(int64)
		total += tasks[i].Samples
	}
	return inside, total, nil
}
