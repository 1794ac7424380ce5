package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmr/internal/sched"
)

// Skewed-worker benchmark on the live backend: one of four nodes takes
// an extra 2ms per task (a 10x-plus straggler at this block size). The
// static variant reproduces the seed's scheduling — every block pinned
// to the node storing it, bounded only by per-node mapper slots — so
// the straggler's share of blocks bounds the makespan. The dynamic
// variants run the same job through the dynamic scheduler.

const benchStragglerDelay = 2 * time.Millisecond

func benchText() string {
	var sb strings.Builder
	for i := 0; i < 2048; i++ {
		fmt.Fprintf(&sb, "w%02d ", i%11)
	}
	return sb.String() // 8 KB -> 32 blocks of 256 bytes
}

func benchCluster(b *testing.B, dynamic, speculative bool) *LiveCluster {
	b.Helper()
	opts := []LiveOption{
		WithBlockSize(256),
		WithTaskDelays([]time.Duration{benchStragglerDelay, 0, 0, 0}),
	}
	if dynamic {
		opts = append(opts, WithScheduling(sched.Options{Speculative: speculative}))
	}
	c, err := NewLiveCluster(4, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.FS.WriteFile("/bench.txt", []byte(benchText()), ""); err != nil {
		b.Fatal(err)
	}
	return c
}

// staticRunKV replays the seed's static loop: each block executes on
// its storing node, full stop.
func staticRunKV(b *testing.B, c *LiveCluster, job *KVJob) []KVResult {
	b.Helper()
	work, err := c.planBlocks(job.Input)
	if err != nil {
		b.Fatal(err)
	}
	nodeIndex := make(map[*LiveNode]int, len(c.Nodes))
	for i, n := range c.Nodes {
		nodeIndex[n] = i
	}
	slots := make([]chan struct{}, len(c.Nodes))
	for i := range slots {
		slots[i] = make(chan struct{}, c.MappersPerNode)
	}
	shuffle := newPartitionedShuffle(len(c.Nodes))
	var wg sync.WaitGroup
	for _, w := range work {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := nodeIndex[w.node]
			sem := slots[node]
			sem <- struct{}{}
			defer func() { <-sem }()
			c.stall(node)
			data, err := c.FS.ReadBlock(w.id, w.host)
			if err != nil {
				b.Error(err)
				return
			}
			local := make(map[string][]string)
			if err := job.Map(data, w.offset, func(k, v string) {
				local[k] = append(local[k], v)
			}); err != nil {
				b.Error(err)
				return
			}
			shuffle.insert(local)
		}()
	}
	wg.Wait()
	res, err := shuffle.reduceAll(job.Reduce)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchJob() *KVJob {
	job := wordCountJob()
	job.Input = "/bench.txt"
	return job
}

// BenchmarkLiveStragglerStatic is the seed's behaviour: the straggler
// serializes its own blocks.
func BenchmarkLiveStragglerStatic(b *testing.B) {
	c := benchCluster(b, false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		staticRunKV(b, c, benchJob())
	}
}

// BenchmarkLiveStragglerStealing lets idle nodes pull the blocks homed
// on the straggler.
func BenchmarkLiveStragglerStealing(b *testing.B) {
	benchDynamic(b, false)
}

// BenchmarkLiveStragglerSpeculative additionally duplicates the
// straggler's in-flight block.
func BenchmarkLiveStragglerSpeculative(b *testing.B) {
	benchDynamic(b, true)
}

func benchDynamic(b *testing.B, speculative bool) {
	c := benchCluster(b, true, speculative)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunKV(benchJob()); err != nil {
			b.Fatal(err)
		}
	}
}
