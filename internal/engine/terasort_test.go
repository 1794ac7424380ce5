package engine

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"hetmr/internal/kernels"
)

// terasort at scale: these tests drive the net backend's sampled
// range-partitioned sort (and, in the bounded-memory smoke, live's
// merge) end to end — random records stream in through
// the windowed ingest path, partitions stream back in key order through
// WaitOutput, and a constant-space checker verifies global sortedness
// without ever materializing the dataset. TestBoundedMemoryStreamingSort
// and TestTerasortScaleFlatHeap pin the peak heap so "streams at any
// size" stays true.

// sortRecordSource streams pseudo-random terasort records without ever
// holding more than one generation batch in memory. Each batch derives
// its seed from the base via MixSeed, so the stream is deterministic
// for a given (seed, size) and two sources with the same parameters
// produce identical bytes.
type sortRecordSource struct {
	seed      uint64
	batch     uint64
	remaining int64
	buf       []byte
}

// sortSourceBatchBytes is one generation batch: large enough to
// amortize the generator, small enough to be heap noise (and a whole
// number of 100-byte records).
const sortSourceBatchBytes = 4_000_000

func newSortRecordSource(seed uint64, totalBytes int64) *sortRecordSource {
	if totalBytes%int64(kernels.SortRecordBytes) != 0 {
		panic(fmt.Sprintf("sort source size %d is not a whole number of %d-byte records", totalBytes, kernels.SortRecordBytes))
	}
	return &sortRecordSource{seed: seed, remaining: totalBytes}
}

func (s *sortRecordSource) Read(p []byte) (int, error) {
	if len(s.buf) == 0 {
		if s.remaining <= 0 {
			return 0, io.EOF
		}
		n := int64(sortSourceBatchBytes)
		if n > s.remaining {
			n = s.remaining
		}
		s.buf = kernels.GenerateSortRecords(kernels.MixSeed(s.seed, s.batch), int(n)/kernels.SortRecordBytes)
		s.batch++
		s.remaining -= n
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// sortedChecker is an io.Writer that verifies a terasort output stream
// in O(1) space: every 100-byte record's 10-byte key must be >= its
// predecessor's, across Write-call boundaries. It is the Sink that
// proves concatenated range partitions need no post-reduce merge.
type sortedChecker struct {
	n        int64
	recOff   int
	cur      [kernels.SortKeyBytes]byte
	prev     [kernels.SortKeyBytes]byte
	havePrev bool
	err      error
}

func (c *sortedChecker) Write(p []byte) (int, error) {
	written := len(p)
	c.n += int64(written)
	for len(p) > 0 {
		if c.recOff < kernels.SortKeyBytes {
			k := copy(c.cur[c.recOff:], p)
			c.recOff += k
			p = p[k:]
			if c.recOff == kernels.SortKeyBytes {
				if c.havePrev && c.err == nil && bytes.Compare(c.prev[:], c.cur[:]) > 0 {
					c.err = fmt.Errorf("record %d out of order: key %x after %x",
						c.n/int64(kernels.SortRecordBytes), c.cur, c.prev)
				}
				c.prev = c.cur
				c.havePrev = true
			}
			continue
		}
		skip := kernels.SortRecordBytes - c.recOff
		if skip > len(p) {
			skip = len(p)
		}
		c.recOff += skip
		p = p[skip:]
		if c.recOff == kernels.SortRecordBytes {
			c.recOff = 0
		}
	}
	return written, nil
}

// check fails the test unless the stream was sorted, record-aligned and
// exactly wantBytes long.
func (c *sortedChecker) check(tb testing.TB, wantBytes int64) {
	tb.Helper()
	if c.err != nil {
		tb.Fatal(c.err)
	}
	if c.recOff != 0 {
		tb.Fatalf("output ends mid-record: %d trailing bytes", c.recOff)
	}
	if c.n != wantBytes {
		tb.Fatalf("streamed %d bytes, want %d", c.n, wantBytes)
	}
}

// terasortOnce runs one range-partitioned sort of inputBytes random
// bytes through the net backend, streaming both directions, and
// verifies the concatenated output is globally sorted. The reducer
// count scales with the input so per-partition working sets stay
// roughly constant — the shape that makes peak heap independent of
// total size.
func terasortOnce(tb testing.TB, inputBytes int64, spillDir string) {
	terasortRun(tb, "net", inputBytes, spillDir, 8_000_000, 8<<20)
}

// terasortRun is terasortOnce on any backend with the two memory knobs
// exposed: partBytes is the target reduce-partition size (the per-task
// working set; net only) and spillMem the per-store watermark (which on
// net also sizes the ingest and fetch credit windows).
func terasortRun(tb testing.TB, backend string, inputBytes int64, spillDir string, partBytes, spillMem int64) {
	tb.Helper()
	reducers := int(inputBytes / partBytes)
	if reducers < 2 {
		reducers = 2
	}
	cfg := Config{
		Workers:       4,
		BlockSize:     4_000_000,
		Reducers:      reducers,
		SpillMemBytes: spillMem,
		SpillDir:      spillDir,
		JobTimeout:    10 * time.Minute,
	}
	check := &sortedChecker{}
	res, err := RunOnce(backend, cfg, &Job{
		Kind:   Sort,
		Seed:   2009,
		Source: newSortRecordSource(2009, inputBytes),
		Sink:   check,
	})
	if err != nil {
		tb.Fatal(err)
	}
	check.check(tb, inputBytes)
	if res.OutputBytes != inputBytes {
		tb.Fatalf("reported %d output bytes, want %d", res.OutputBytes, inputBytes)
	}
}

// TestBoundedMemoryStreamingSort is the terasort analogue of
// TestBoundedMemoryStreaming (the CI mem-smoke lane's -run prefix
// covers both): on net and live, a dataset many times the spill
// watermark sorts end to end under a hard Go memory limit, and the
// streamed output is verified globally sorted — net's range partitions
// concatenated with zero post-reduce merge, live's spilled runs merged
// straight into the Sink. GOGC is pinned low so sampled heap tracks the
// live working set instead of the GC target riding up to the limit —
// the assertion is on what the pipeline retains, not on how lazy the
// collector feels.
func TestBoundedMemoryStreamingSort(t *testing.T) {
	oldLimit := debug.SetMemoryLimit(256 << 20)
	defer debug.SetMemoryLimit(oldLimit)
	oldGC := debug.SetGCPercent(10)
	defer debug.SetGCPercent(oldGC)

	const (
		input   = 40_000_000 // 40 MB of 100-byte records
		peakCap = 128 << 20
	)
	for _, backend := range []string{"net", "live"} {
		t.Run(backend, func(t *testing.T) {
			peak := samplePeakHeap(func() {
				terasortRun(t, backend, input, t.TempDir(), 2_000_000, 2<<20)
			})
			t.Logf("peak_heap_MB=%.1f input_MB=%d", float64(peak)/(1<<20), input/1_000_000)
			if peak > peakCap {
				t.Fatalf("peak heap %.1f MB exceeds the %d MB bound for a %d MB streamed sort",
					float64(peak)/(1<<20), peakCap>>20, input/1_000_000)
			}
		})
	}
}

// TestTerasortScaleFlatHeap is the at-scale acceptance run, gated
// behind HETMR_TERASORT_SCALE=1 because the 1 GB pass takes minutes:
// a 1 GB range-partitioned net sort must complete with its peak live
// heap flat — within 1.5x — of the 100 MB run's. Reducer count scales
// with input (fixed partition size), so a flat peak proves every layer
// streams: ingest windows, spill watermarks, credit-bounded fetches and
// chunked output all independent of total dataset size.
func TestTerasortScaleFlatHeap(t *testing.T) {
	if os.Getenv("HETMR_TERASORT_SCALE") == "" {
		t.Skip("set HETMR_TERASORT_SCALE=1 to run the 1 GB terasort scale gate")
	}
	oldGC := debug.SetGCPercent(10)
	defer debug.SetGCPercent(oldGC)
	peakSmall := samplePeakHeap(func() { terasortOnce(t, 100_000_000, t.TempDir()) })
	runtime.GC()
	peakLarge := samplePeakHeap(func() { terasortOnce(t, 1_000_000_000, t.TempDir()) })
	t.Logf("peak_heap_MB: 100MB run %.1f, 1GB run %.1f (ratio %.2f)",
		float64(peakSmall)/(1<<20), float64(peakLarge)/(1<<20), float64(peakLarge)/float64(peakSmall))
	if float64(peakLarge) > 1.5*float64(peakSmall) {
		t.Fatalf("1 GB peak heap %.1f MB is more than 1.5x the 100 MB run's %.1f MB — some layer scales with input size",
			float64(peakLarge)/(1<<20), float64(peakSmall)/(1<<20))
	}
}

// TestRangePartitionSortConformance pins the net sort's correctness
// contract: the range-partitioned net sort, its result collected from
// the trackers, is bit-identical to the hash-partitioned in-process sort — same records, same order,
// merely routed through contiguous key ranges instead of a hash ring.
func TestRangePartitionSortConformance(t *testing.T) {
	input := kernels.GenerateSortRecords(7, 3_000)
	job := func() *Job { return &Job{Kind: Sort, Input: append([]byte(nil), input...)} }

	ref := runOn(t, "live", job())

	for _, reducers := range []int{1, 5} {
		reducers := reducers
		t.Run(fmt.Sprintf("reducers=%d", reducers), func(t *testing.T) {
			cfg := conformanceConfig()
			cfg.Reducers = reducers
			res := runOnConfig(t, "net", cfg, job())
			if !bytes.Equal(ref.Bytes, res.Bytes) {
				t.Fatalf("range-partitioned net sort differs from live hash sort (%d vs %d bytes)",
					len(res.Bytes), len(ref.Bytes))
			}
		})
	}
}
