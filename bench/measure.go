package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value; the unit travels with it everywhere it
// is printed or stored.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// heapSampler records the peak of /gc/heap/live:bytes between resets.
// runtime/metrics reads are cheap and do not stop the world, unlike
// runtime.ReadMemStats.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// heapSampleEvery is the sampling period. The live-heap figure only
// changes when a GC cycle ends, so 10 ms misses nothing that matters.
const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the last take and starts a new interval.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// midMean is the interquartile mean: the mean of the samples left
// after dropping the lowest and the highest quarter. Job times here
// come in quanta (20 ms heartbeats, poll back-off steps), and when two
// quanta are about equally likely a median flips between them from run
// to run; the mid-mean moves smoothly with the mix and still ignores
// the jobs that ran while something else had the machine.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	trim := len(s) / 4
	return mean(s[trim : len(s)-trim])
}

// tailQuantile picks the highest of p99, p95, p90 and p75 that still
// has at least ten samples beyond it, falling back to p75 for small
// samples, and returns it with its value.
func tailQuantile(xs []float64) (q, v float64) {
	q = 0.75
	for _, c := range []float64{0.99, 0.95, 0.90} {
		if float64(len(xs))*(1-c) >= 10 {
			q = c
			break
		}
	}
	return q, quantile(xs, q)
}

// spread is the interquartile range as a share of the median — the
// steadiness figure the regression bounds are judged against. It uses
// the same exclusive quartile method as Python's statistics.quantiles.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { // position p*(n+1), 1-based
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (at(0.75) - at(0.25)) / median(s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
