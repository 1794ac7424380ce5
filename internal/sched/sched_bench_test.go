package sched

import (
	"sync"
	"testing"
	"time"
)

// The skewed-worker benchmark is the PR's wall-clock argument: a
// 4-worker fleet whose first worker is 10x slower (the paper's
// PPE-only node next to Cell blades) running 32 equal tasks. Static
// assignment splits tasks evenly up front, so the slow worker's share
// bounds the makespan; under pull grants the fast workers take what
// the slow one never asks for, and speculation additionally rescues
// its in-flight task.

const (
	benchTasks    = 32
	benchFastCost = 200 * time.Microsecond
	benchSlowCost = 2 * time.Millisecond // 10x the fast cost
)

func benchCost(w int) time.Duration {
	if w == 0 {
		return benchSlowCost
	}
	return benchFastCost
}

// BenchmarkSkewedWorkersStatic is the baseline the seed's runners
// implemented: an even up-front split with no migration.
func BenchmarkSkewedWorkersStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := w; t < benchTasks; t += 4 {
					time.Sleep(benchCost(w))
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkSkewedWorkersStealing is the dynamic scheduler without
// speculation: the slow worker keeps only what it can finish.
func BenchmarkSkewedWorkersStealing(b *testing.B) {
	benchPool(b, Options{})
}

// BenchmarkSkewedWorkersSpeculative adds straggler duplication: the
// slow worker's in-flight task no longer gates the tail.
func BenchmarkSkewedWorkersSpeculative(b *testing.B) {
	benchPool(b, Options{Speculative: true})
}

func benchPool(b *testing.B, opts Options) {
	workers, tasks := fleet(4), unhomed(benchTasks)
	exec := func(w, t int) (any, error) {
		time.Sleep(benchCost(w))
		return nil, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(workers, tasks, exec, opts); err != nil {
			b.Fatal(err)
		}
	}
}
