package netmr

import (
	"bytes"
	"fmt"
	"sort"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// MapKernel is a named, registered computation the TaskTrackers can
// run. Map consumes one task's input (block data, or samples for
// compute kernels) and returns a partial result; Reduce folds the
// partials, ordered by task ID, into the job result.
//
// One rule fixes the payload format of every task output: a byte-stream
// kernel (sort, aes-ctr) emits the result bytes themselves — a sorted
// record run, a ciphertext block — and a structured kernel (wordcount,
// pi, grep) emits one gob-encoded struct. Whatever a task returns is
// what is stored, fetched and handed to Merge/Reduce, byte for byte;
// the result of a JobSpec.StreamOutput job is its final-phase task
// outputs concatenated in task order.
//
// Kernels with large intermediate output additionally implement the
// distributed shuffle pair: Partition runs map-side and splits the
// task's output into R key-routed partitions held in the tracker's
// shuffle store; Merge runs as a reduce task and folds the per-mapper
// pieces of one partition (ordered by map task ID) into that
// partition's output, which must itself be a valid Reduce partial.
// With both set and JobSpec.NumReducers > 0, map output bytes never
// cross the JobTracker — only the R merged reduce outputs do.
//
// Merge and Reduce must treat their inputs as read-only: a piece served
// from the reducing tracker's own store aliases resident store memory.
type MapKernel struct {
	// Map runs on the TaskTracker. data is nil for compute tasks.
	Map func(task Task, data []byte) ([]byte, error)
	// Reduce runs on the JobTracker when all tasks are done: over the
	// map outputs on the centralized path, over the reduce-task
	// outputs (ordered by partition) on the shuffle path.
	Reduce func(partials [][]byte) ([]byte, error)
	// Partition runs on the TaskTracker instead of Map when the
	// distributed shuffle is on: it returns exactly parts payloads,
	// one per partition (empty partitions included).
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

	// splitWordCounts routes each word's count to the partition its
	// hash selects, so a reduce task owns a disjoint key range. Shared
	// by the host and accelerated Partition variants — only how the
	// per-block table is produced differs.
	splitWordCounts := func(counts map[string]int64, parts int) ([][]byte, error) {
		split := make([]map[string]int64, parts)
		for p := range split {
			split[p] = make(map[string]int64)
		}
		for w, n := range counts {
			split[kernels.PartitionIndexString(w, parts)][w] = n
		}
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
		Map: func(_ Task, data []byte) ([]byte, error) {
			return rpcnet.Marshal(wordCountPartial{Counts: kernels.WordCount(data)})
		},
		Reduce: func(partials [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(partials)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(total)
		},
		Partition: func(_ Task, data []byte, parts int) ([][]byte, error) {
			return splitWordCounts(kernels.WordCount(data), parts)
		},
		Merge: func(pieces [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(pieces)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(wordCountPartial{Counts: total})
		},
		// Accelerated variants: the block's table comes off the SPEs
		// (separator-aligned sub-blocks, commutative merge), then the
		// same marshalling as the host path — bit-identical results.
		AccelMap: func(dev *AccelDevice, _ Task, data []byte) ([]byte, error) {
			counts, err := dev.WordCount(data)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(wordCountPartial{Counts: counts})
		},
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
		// Partials arrive in task order: concatenated they are the whole
		// ciphertext.
		Reduce: func(partials [][]byte) ([]byte, error) {
			return bytes.Join(partials, nil), nil
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
		// TeraSort shape: sort each block's 100-byte records where
		// they live, merge the sorted runs at the JobTracker. The
		// submitter must pick a DFS block size that is a multiple of
		// the record size.
		Map: func(_ Task, data []byte) ([]byte, error) {
			run := append([]byte(nil), data...)
			if err := kernels.SortRecords(run); err != nil {
				return nil, err
			}
			return run, nil
		},
		Reduce: kernels.MergeSortedRuns,
		// Shuffle path: records route to partitions by key hash — or,
		// when the task carries SplitKeys, by range
		// (kernels.RangePartitioner). Either way equal keys meet in
		// one reduce task, so both routes reproduce the centralized
		// order bit for bit; the range route additionally makes the
		// partitions themselves key-ordered, so a StreamOutput job's
		// pieces concatenate globally sorted with no final merge.
		Partition: func(task Task, data []byte, parts int) ([][]byte, error) {
			run := append([]byte(nil), data...)
			if err := kernels.SortRecords(run); err != nil {
				return nil, err
			}
			index := func(key []byte) int { return kernels.PartitionIndex(key, parts) }
			if len(task.SplitKeys) > 0 {
				rp := kernels.NewRangePartitioner(task.SplitKeys)
				if rp.Parts() != parts {
					return nil, fmt.Errorf("netmr: %d split keys for %d partitions", len(task.SplitKeys), parts)
				}
				index = rp.Index
			}
			// An empty partition stays a nil slice: a zero-length run.
			split := make([][]byte, parts)
			for off := 0; off < len(run); off += kernels.SortRecordBytes {
				rec := run[off : off+kernels.SortRecordBytes]
				p := index(rec[:kernels.SortKeyBytes])
				split[p] = append(split[p], rec...)
			}
			return split, nil
		},
		Merge: kernels.MergeSortedRuns,
	})

	RegisterKernel("grep", MapKernel{
		Map: func(task Task, data []byte) ([]byte, error) {
			var pattern []byte
			if err := rpcnet.Unmarshal(task.Args, &pattern); err != nil {
				return nil, err
			}
			var matches []string
			kernels.GrepLines(data, pattern, func(_ int, line []byte) {
				matches = append(matches, string(line))
			})
			return rpcnet.Marshal(matches)
		},
		Reduce: func(partials [][]byte) ([]byte, error) {
			var all []string
			for _, p := range partials {
				var m []string
				if err := rpcnet.Unmarshal(p, &m); err != nil {
					return nil, err
				}
				all = append(all, m...)
			}
			sort.Strings(all)
			return rpcnet.Marshal(all)
		},
	})
}
