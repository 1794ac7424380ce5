package netmr

import (
	"bytes"
	"cmp"
	"fmt"
	"io"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// MapKernel is a named, registered computation the TaskTrackers can
// run, and the one table that says where a job's result goes. A kernel
// has Map, or the shuffle pair Partition+Merge; and it has Reduce if and
// only if it is structured.
//
// A byte-stream kernel (sort, aes-ctr) has no Reduce. Its task outputs
// are the result bytes themselves — a sorted record run, a ciphertext
// block — and the job's result is its final-phase task outputs
// concatenated in task order: always parked in the executing trackers'
// stores, reported by location and collected by the client with
// WaitOutput. The JobTracker never holds them.
//
// A structured kernel (wordcount, pi) has a Reduce. Its task outputs are
// small (word runs, a gob struct), and the final-phase ones ride the
// completion heartbeat to the JobTracker, which keeps them and hands
// them to the client in the job's terminal Status reply, and
// Client.WaitStatus folds them into StatusReply.Result. The JobTracker
// runs no kernel code.
//
// A kernel with Partition and Merge always shuffles its data jobs:
// Partition runs map-side and returns the task's output as one run of R
// key-routed partitions, back to back, which the tracker's shuffle
// store keeps as one payload and serves a partition at a time; Merge
// runs as a reduce task and folds the per-mapper pieces of one
// partition (ordered by map task ID) into that partition's output — for
// a structured kernel a valid Reduce partial. Map output bytes never
// cross the JobTracker.
//
// Whatever a task returns is what is stored, fetched and handed to
// Merge/Reduce, byte for byte. Merge and Reduce must treat their inputs
// as read-only, and no output may alias them: a piece served from the
// reducing tracker's own store reads resident store memory, lent until
// Merge returns, and a remote piece's chunk buffer is overwritten by its
// next chunk. A stored output belongs to the store, which hands a
// buffer of rpcnet's bulk class back to rpcnet.Recycle once no reader
// holds it: so a byte-stream kernel builds its bulk outputs in
// rpcnet.Borrow buffers, and nothing else may keep a reference to them.
//
// A map task's data is borrowed: the DFS block in rpcnet's pooled frame
// buffer, valid only until Map or Partition (or an Accel variant)
// returns. No output may alias it: the sort run, the word runs and the
// CTR output are all copies.
type MapKernel struct {
	// Map runs on the TaskTracker. data is nil for compute tasks.
	Map func(task Task, data []byte) ([]byte, error)
	// Reduce runs on the client (Client.WaitStatus) once the job is
	// done, over the final-phase outputs in task order: the map outputs
	// of a Map kernel, the reduce-task outputs (ordered by partition) of
	// a shuffle kernel. Its output is StatusReply.Result: wordcount's one
	// word run (kernels.EachWordRun) of every word, pi's gob PiResult.
	Reduce func(partials [][]byte) ([]byte, error)
	// Partition runs on the TaskTracker in Map's place: it returns the
	// task's run, partitions 0 to parts-1 back to back, and exactly
	// parts sizes, one per partition (empty partitions included).
	Partition func(task Task, data []byte, parts int) (run []byte, sizes []int64, err error)
	// Merge runs on the reducing TaskTracker: fold one partition's
	// per-mapper pieces, in map task order, into the partition's reduce
	// output. Every piece's size is known when Merge starts, so an
	// output can be allocated once at its exact size; a remote piece's
	// bytes arrive only as Merge reads them.
	Merge func(pieces []Piece) ([]byte, error)
	// AccelMap, when set, is Map's accelerated variant: it offloads
	// the map work to the tracker's device and MUST return the bytes
	// Map does. It runs only on accelerator-equipped trackers for tasks
	// whose Mapper is MapperCell; returning errAccelFallback hands the
	// task back to the host path.
	AccelMap func(dev *AccelDevice, task Task, data []byte) ([]byte, error)
	// AccelPartition is Partition's accelerated variant under the same
	// contract.
	AccelPartition func(dev *AccelDevice, task Task, data []byte, parts int) (run []byte, sizes []int64, err error)
}

// Piece is one map task's share of the partition a reduce task merges:
// Size bytes, read once from the front. A piece in the reducing
// tracker's own store reads the store's memory in place; a remote one
// streams in from its peer's store, a chunk at a time, as it is read.
type Piece struct {
	io.Reader
	Size int64
}

// kernelRegistry holds the built-in kernels; RegisterKernel extends it
// (must happen before daemons start — the registry is read-only at
// runtime).
var kernelRegistry = map[string]MapKernel{}

// RegisterKernel adds a kernel under a unique name.
func RegisterKernel(name string, k MapKernel) {
	if _, dup := kernelRegistry[name]; dup {
		panic(fmt.Sprintf("netmr: kernel %q already registered", name))
	}
	kernelRegistry[name] = k
}

// lookupKernel fetches a registered kernel.
func lookupKernel(name string) (MapKernel, error) {
	k, ok := kernelRegistry[name]
	if !ok {
		return MapKernel{}, fmt.Errorf("netmr: unknown kernel %q", name)
	}
	return k, nil
}

// AESArgs parameterizes the aes-ctr kernel.
type AESArgs struct {
	Key []byte
	IV  []byte
	// Offset of each task's block is derived from task ID x block
	// size; BlockBytes carries that size.
	BlockBytes int64
}

// piPartial is the pi kernel's map output.
type piPartial struct {
	Inside int64
	Total  int64
}

// PiResult is the pi kernel's reduced output.
type PiResult struct {
	Inside int64
	Total  int64
	Pi     float64
}

func init() {
	// A wordcount partial is a word run (kernels.WordTable.Runs): the
	// partition's words in byte order with their counts, so the host and
	// accelerated paths give the same bytes.
	RegisterKernel("wordcount", MapKernel{
		// Partitions hold disjoint words: their merge is exactly as long.
		Reduce: func(partials [][]byte) ([]byte, error) {
			runs, sizes, total := make([]io.Reader, len(partials)), make([]int64, len(partials)), 0
			for i, p := range partials {
				runs[i], sizes[i], total = bytes.NewReader(p), int64(len(p)), total+len(p)
			}
			return kernels.MergeWordRuns(make([]byte, 0, total), runs, sizes)
		},
		// The host variant counts in the table a tracker's slot lends.
		Partition: func(task Task, data []byte, parts int) ([]byte, []int64, error) {
			counts := cmp.Or(task.words, new(kernels.WordTable))
			counts.Reset()
			counts.Add(data)
			runs, sizes := counts.Runs(parts)
			return runs, sizes, nil
		},
		Merge: func(pieces []Piece) ([]byte, error) {
			runs, sizes, longest := make([]io.Reader, len(pieces)), make([]int64, len(pieces)), int64(0)
			for i, p := range pieces {
				runs[i], sizes[i], longest = p.Reader, p.Size, max(longest, p.Size)
			}
			return kernels.MergeWordRuns(make([]byte, 0, longest), runs, sizes)
		},
		// Accelerated variant: the block's table comes off the SPEs, in
		// the device's own tables, and is cut while it is lent.
		AccelPartition: func(dev *AccelDevice, _ Task, data []byte, parts int) (runs []byte, sizes []int64, err error) {
			err = dev.WordCount(data, func(counts *kernels.WordTable) error {
				runs, sizes = counts.Runs(parts)
				return nil
			})
			return runs, sizes, err
		},
	})

	RegisterKernel("aes-ctr", MapKernel{
		Map: func(task Task, data []byte) ([]byte, error) {
			var args AESArgs
			if err := rpcnet.Unmarshal(task.Args, &args); err != nil {
				return nil, err
			}
			c, err := kernels.NewCipher(args.Key)
			if err != nil {
				return nil, err
			}
			out := rpcnet.Borrow(len(data))
			offset := int64(task.TaskID) * args.BlockBytes
			kernels.CTRStreamFast(c, args.IV, offset, out, data)
			return out, nil
		},
		// Accelerated variant: the same seekable CTR stream, 4 KB
		// blocks double-buffered through the SPE local stores.
		AccelMap: func(dev *AccelDevice, task Task, data []byte) ([]byte, error) {
			var args AESArgs
			if err := rpcnet.Unmarshal(task.Args, &args); err != nil {
				return nil, err
			}
			c, err := kernels.NewCipher(args.Key)
			if err != nil {
				return nil, err
			}
			return dev.CTRStream(c, args.IV, int64(task.TaskID)*args.BlockBytes, data)
		},
	})

	RegisterKernel("pi", MapKernel{
		Map: func(task Task, _ []byte) ([]byte, error) {
			inside := kernels.CountInside(task.Seed, task.Samples)
			return rpcnet.Marshal(piPartial{Inside: inside, Total: task.Samples})
		},
		// Accelerated variant: the task's sample range fans out over
		// the SPEs, each seeking into the exact splitmix64 stream —
		// the summed tally equals the host kernel's single pass.
		AccelMap: func(dev *AccelDevice, task Task, _ []byte) ([]byte, error) {
			inside, err := dev.CountInside(task.Seed, task.Samples)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(piPartial{Inside: inside, Total: task.Samples})
		},
		Reduce: func(partials [][]byte) ([]byte, error) {
			var inside, total int64
			for _, p := range partials {
				var part piPartial
				if err := rpcnet.Unmarshal(p, &part); err != nil {
					return nil, err
				}
				inside += part.Inside
				total += part.Total
			}
			return rpcnet.Marshal(PiResult{
				Inside: inside,
				Total:  total,
				Pi:     kernels.EstimatePi(inside, total),
			})
		},
	})

	RegisterKernel("sort", MapKernel{
		// TeraSort shape: sort each block's 100-byte records where they
		// live, cut the sorted run at the job's SplitKeys
		// (kernels.RangePartitioner; none means one range), merge each
		// range's runs on a reducer. Ranges are key-ordered, so the
		// reduce outputs concatenate globally sorted with no final merge.
		// The submitter must pick a DFS block size that is a multiple of
		// the record size.
		Partition: func(task Task, data []byte, parts int) ([]byte, []int64, error) {
			rp := kernels.NewRangePartitioner(task.SplitKeys)
			if rp.Parts() != parts {
				return nil, nil, fmt.Errorf("netmr: %d split keys for %d partitions", len(task.SplitKeys), parts)
			}
			run := rpcnet.Borrow(len(data))
			if err := kernels.SortedRecordsInto(run, data); err != nil {
				return nil, nil, err
			}
			sizes := make([]int64, parts)
			for p, piece := range rp.Cut(run) {
				sizes[p] = int64(len(piece))
			}
			return run, sizes, nil
		},
		Merge: func(pieces []Piece) ([]byte, error) {
			var size int64
			runs := make([]io.Reader, len(pieces))
			for i, p := range pieces {
				runs[i], size = p.Reader, size+p.Size
			}
			out := rpcnet.Borrow(int(size))
			if err := kernels.MergeSortedInto(out, runs...); err != nil {
				return nil, err
			}
			return out, nil
		},
	})
}
