package netmr

import (
	"fmt"

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
// small gob structs; the final-phase ones ride the completion heartbeat
// and the JobTracker folds them into StatusReply.Result.
//
// A kernel with Partition and Merge always shuffles its data jobs:
// Partition runs map-side and splits the task's output into R key-routed
// partitions held in the tracker's shuffle store; Merge runs as a reduce
// task and folds the per-mapper pieces of one partition (ordered by map
// task ID) into that partition's output — for a structured kernel a
// valid Reduce partial. Map output bytes never cross the JobTracker.
//
// Whatever a task returns is what is stored, fetched and handed to
// Merge/Reduce, byte for byte. Merge and Reduce must treat their inputs
// as read-only: a piece served from the reducing tracker's own store
// aliases resident store memory.
//
// A map task's data is borrowed: the DFS block in rpcnet's pooled frame
// buffer, valid only until Map or Partition (or an Accel variant)
// returns. No output may alias it: the sort run, the word table's arena
// and the CTR output are all copies.
type MapKernel struct {
	// Map runs on the TaskTracker. data is nil for compute tasks.
	Map func(task Task, data []byte) ([]byte, error)
	// Reduce runs on the JobTracker when all tasks are done, over the
	// final-phase outputs in task order: the map outputs of a Map kernel,
	// the reduce-task outputs (ordered by partition) of a shuffle kernel.
	Reduce func(partials [][]byte) ([]byte, error)
	// Partition runs on the TaskTracker in Map's place: it returns
	// exactly parts payloads, one per partition (empty partitions
	// included).
	Partition func(task Task, data []byte, parts int) ([][]byte, error)
	// Merge runs on the reducing TaskTracker: fold one partition's
	// per-mapper pieces into the partition's reduce output.
	Merge func(pieces [][]byte) ([]byte, error)
	// AccelMap, when set, is Map's accelerated variant: it offloads
	// the map work to the tracker's device and MUST produce bytes
	// bit-identical to Map's. It runs only on accelerator-equipped
	// trackers for tasks whose Mapper is MapperCell; returning
	// errAccelFallback hands the task back to the host path.
	AccelMap func(dev *AccelDevice, task Task, data []byte) ([]byte, error)
	// AccelPartition is Partition's accelerated variant under the same
	// contract.
	AccelPartition func(dev *AccelDevice, task Task, data []byte, parts int) ([][]byte, error)
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

// wordCountPartial is the wordcount kernel's map output.
type wordCountPartial struct {
	Counts map[string]int64
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
	// mergeWordCounts folds wordCountPartial payloads into one table.
	mergeWordCounts := func(pieces [][]byte) (map[string]int64, error) {
		total := make(map[string]int64)
		for _, p := range pieces {
			var part wordCountPartial
			if err := rpcnet.Unmarshal(p, &part); err != nil {
				return nil, err
			}
			for w, n := range part.Counts {
				total[w] += n
			}
		}
		return total, nil
	}

	// splitWordCounts routes each distinct word of the block's table to
	// the partition its hash selects, so a reduce task owns a disjoint
	// key range. Shared by the host and accelerated Partition variants —
	// only how the table is filled differs.
	splitWordCounts := func(counts *kernels.WordTable, parts int) ([][]byte, error) {
		split := make([]map[string]int64, parts)
		for p := range split {
			split[p] = make(map[string]int64)
		}
		counts.Each(func(w string, n int64) {
			split[kernels.PartitionIndexString(w, parts)][w] = n
		})
		out := make([][]byte, parts)
		for p := range split {
			payload, err := rpcnet.Marshal(wordCountPartial{Counts: split[p]})
			if err != nil {
				return nil, err
			}
			out[p] = payload
		}
		return out, nil
	}

	RegisterKernel("wordcount", MapKernel{
		Reduce: func(partials [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(partials)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(total)
		},
		Partition: func(_ Task, data []byte, parts int) ([][]byte, error) {
			var counts kernels.WordTable
			counts.Add(data)
			return splitWordCounts(&counts, parts)
		},
		Merge: func(pieces [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(pieces)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(wordCountPartial{Counts: total})
		},
		// Accelerated variant: the block's table comes off the SPEs
		// (separator-aligned sub-blocks, one table per SPE, merged once),
		// then the same split and marshalling as the host path —
		// bit-identical results.
		AccelPartition: func(dev *AccelDevice, _ Task, data []byte, parts int) ([][]byte, error) {
			counts, err := dev.WordCount(data)
			if err != nil {
				return nil, err
			}
			return splitWordCounts(counts, parts)
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
			out := make([]byte, len(data))
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
		Partition: func(task Task, data []byte, parts int) ([][]byte, error) {
			rp := kernels.NewRangePartitioner(task.SplitKeys)
			if rp.Parts() != parts {
				return nil, fmt.Errorf("netmr: %d split keys for %d partitions", len(task.SplitKeys), parts)
			}
			run, err := kernels.SortedRecords(data)
			if err != nil {
				return nil, err
			}
			// The pieces are capped slices of the one run, and the shuffle
			// store keeps each as handed (spill.Store.Put takes
			// ownership): nothing writes the run after the cut, and it
			// lives until its last in-memory piece is deleted.
			return rp.Cut(run), nil
		},
		Merge: kernels.MergeSortedRuns,
	})
}
