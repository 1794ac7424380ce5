package engine

import (
	"io"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// samplePeakHeap runs f while polling the Go heap, returning the
// highest HeapAlloc observed (bytes). A GC before the run floors the
// baseline so successive measurements do not inherit each other's
// garbage.
func samplePeakHeap(f func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	f()
	close(stop)
	<-done
	return peak.Load()
}

// streamEncryptOnce runs one fully-streamed encrypt job: synthetic
// generator in, io.Discard out, every data-plane store bounded by the
// spill watermark.
func streamEncryptOnce(tb testing.TB, backend string, inputBytes int64, spillDir string) {
	tb.Helper()
	cfg := Config{
		Workers:       4,
		BlockSize:     64_000,
		SpillMemBytes: 1 << 20,
		SpillDir:      spillDir,
	}
	job := &Job{
		Kind:       Encrypt,
		InputBytes: inputBytes,
		Key:        []byte("bench-stream-key"),
		Sink:       io.Discard,
	}
	res, err := RunOnce(backend, cfg, job)
	if err != nil {
		tb.Fatal(err)
	}
	if res.OutputBytes != inputBytes {
		tb.Fatalf("%s streamed %d bytes, want %d", backend, res.OutputBytes, inputBytes)
	}
}

// TestBoundedMemoryStreaming is the bounded-memory smoke gate: a
// synthetic dataset far above the spill watermark streams end to end
// — generator → DFS blocks → kernel → spilled output → sink — on both
// functional backends under a hard Go memory limit. If any layer
// regresses to materializing the dataset, the peak heap blows through
// the assertion (and under the CI lane's GOMEMLIMIT, the runtime
// thrashes or dies) instead of silently passing.
func TestBoundedMemoryStreaming(t *testing.T) {
	// A hard ceiling well below the combined input sizes: the
	// streamed path needs only a few MB, a materializing regression
	// needs hundreds.
	old := debug.SetMemoryLimit(256 << 20)
	defer debug.SetMemoryLimit(old)

	const (
		liveInput = 64 << 20 // 64 MB through the in-process cluster
		netInput  = 32 << 20 // 32 MB through the socket-backed cluster
		peakCap   = 128 << 20
	)
	cases := []struct {
		backend string
		input   int64
	}{
		{"live", liveInput},
		{"net", netInput},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.backend, func(t *testing.T) {
			peak := samplePeakHeap(func() {
				streamEncryptOnce(t, tc.backend, tc.input, t.TempDir())
			})
			t.Logf("peak_heap_MB=%.1f input_MB=%d", float64(peak)/(1<<20), tc.input/(1<<20))
			if peak > peakCap {
				t.Fatalf("peak heap %.1f MB exceeds the %d MB bound for a %d MB streamed input",
					float64(peak)/(1<<20), peakCap>>20, tc.input>>20)
			}
		})
	}
}
