package engine

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"

	"hetmr/internal/kernels"
	"hetmr/internal/testutil"
)

// TestNetJobAllocationCeilings holds a warm net cluster to the bulk
// buffer life cycle, by runtime.MemStats over whole jobs: a bench-shaped
// 32 MB terasort (4 workers, 4 MB blocks, 8 reducers) and a 32 MiB
// encryption (1 MiB blocks), and a bench-shaped 32 MiB Zipf word count
// (1 MiB blocks, 4 reducers, the cell mapper), whose SPE word tables
// are the device's own and kept from job to job. Every stored bulk buffer — a DFS block, a
// sorted map run, a reduce output, a ciphertext block, an ingest buffer
// — is borrowed from rpcnet's pool and recycled when its store lets it
// go, so a warm job allocates a fraction of its input: without the
// shuffle store's recycling the sort reads about 2.9 B per input byte
// and the encryption 1.4. The cases share the pool, as a process
// running one workload after another does: a frame read or a Borrow
// takes only a buffer of about its own size, so the sort's 4 MB
// buffers never hold the encryption's 1 MiB blocks. The small pair is
// smalljobs-net's shape, where the fixed per-job work shows: a 64 000-byte
// Zipf word count on the host mapper, then a 32-task Pi job, counted
// against the word count's input. Its result is the merged word run
// (Pairs built in one pass over it): with a gob map folded in Reduce,
// decoded and sorted again, the pair read about 13.5 B per input byte.
func TestNetJobAllocationCeilings(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceilings hold only without it")
	}
	if testing.Short() {
		t.Skip("runs 14 jobs of 32 MB on a net cluster")
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		jobs    func(input []byte) []*Job
		input   func() []byte
		ceiling float64 // B allocated per input byte, median of the warm jobs
	}{
		{
			name:    "sort",
			cfg:     Config{Workers: 4, BlockSize: 4_000_000, Reducers: 8},
			jobs:    func(in []byte) []*Job { return []*Job{{Kind: Sort, Source: bytes.NewReader(in), Sink: io.Discard}} },
			input:   func() []byte { return kernels.GenerateSortRecords(51, 32_000_000/kernels.SortRecordBytes) },
			ceiling: 1.0,
		},
		{
			name: "encrypt",
			cfg:  Config{Workers: 4, BlockSize: 1 << 20},
			jobs: func(in []byte) []*Job {
				return []*Job{{Kind: Encrypt, Source: bytes.NewReader(in), Sink: io.Discard, Key: []byte("alloc-ceiling-k!")}}
			},
			input:   func() []byte { return kernels.GenerateSortRecords(51, 32<<20/kernels.SortRecordBytes) },
			ceiling: 0.2,
		},
		{
			name:    "wordcount",
			cfg:     Config{Workers: 4, BlockSize: 1 << 20, Reducers: 4},
			jobs:    func(in []byte) []*Job { return []*Job{{Kind: Wordcount, Source: bytes.NewReader(in)}} },
			input:   func() []byte { return testutil.ZipfText(52, 32<<20) },
			ceiling: 0.25,
		},
		{
			name: "small-pair",
			cfg:  Config{Workers: 4, Mapper: "java"},
			jobs: func(in []byte) []*Job {
				return []*Job{{Kind: Wordcount, Source: bytes.NewReader(in)}, {Kind: Pi, Samples: 1_000_000, Tasks: 32}}
			},
			input:   func() []byte { return testutil.ZipfText(53, 64_000) },
			ceiling: 9.5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.input()
			r, err := New("net", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			const warmups, jobs = 2, 5
			var perByte []float64
			for i := 0; i < warmups+jobs; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, job := range tc.jobs(input) {
					if _, err := r.Run(job); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				if i >= warmups {
					perByte = append(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(input)))
				}
			}
			slices.Sort(perByte)
			t.Logf("%s: warm jobs allocate %.2f B per input byte (median; %.2f-%.2f)", tc.name, perByte[jobs/2], perByte[0], perByte[jobs-1])
			if perByte[jobs/2] > tc.ceiling {
				t.Errorf("%s: warm jobs allocate %.2f B per input byte by median, want <= %.2f", tc.name, perByte[jobs/2], tc.ceiling)
			}
		})
	}
}
