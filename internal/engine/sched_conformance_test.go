package engine

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hetmr/internal/kernels"
)

// The dynamic scheduler must never change what a job computes, only
// when it finishes: with speculation enabled and one injected
// straggler an order of magnitude slower than its peers, every kind's
// result stays bit-identical to the plain run on both
// functional backends (live in-process, net over TCP).

// stragglerConfig mirrors conformanceConfig with worker 0 degraded:
// its 8ms per-task delay is 10x-plus the real per-block work at this
// block size.
func stragglerConfig() Config {
	cfg := conformanceConfig()
	cfg.Speculative = true
	cfg.MaxAttempts = 4
	cfg.FaultDelays = []time.Duration{8 * time.Millisecond, 0, 0}
	return cfg
}

func TestConformanceWithSpeculationAndStraggler(t *testing.T) {
	for _, backend := range []string{"live", "net"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, c := range conformanceCases() {
				job := c.job
				t.Run(c.name, func(t *testing.T) {
					ref := runOn(t, backend, job)
					r, err := New(backend, stragglerConfig())
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					res, err := r.Run(job)
					if err != nil {
						t.Fatalf("%s with straggler: %v", job.Kind, err)
					}
					assertSameResult(t, job.Kind, backend+"(plain)", ref, backend+"(straggler)", res)
					// The scheduler's accounting must cover every task,
					// and the straggler (worker 0) must not have run the
					// whole job — healthy workers pull the tasks it never
					// asks for.
					total := 0
					for _, n := range res.TaskCounts {
						total += n
					}
					if total == 0 {
						t.Fatalf("no task counts reported: %+v", res.TaskCounts)
					}
					for _, straggler := range []string{"node000", "tracker-0"} {
						if n := res.TaskCounts[straggler]; n == total {
							t.Errorf("straggler %s won all %d tasks", straggler, n)
						}
					}
				})
			}
		})
	}
}

// TestSpeculationOnOffBitIdentical pins the acceptance contract
// directly: the same job with speculation on and off produces the
// same bytes on every dynamically scheduled backend.
func TestSpeculationOnOffBitIdentical(t *testing.T) {
	for _, backend := range []string{"live", "net"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, c := range conformanceCases() {
				job := c.job
				off := runOn(t, backend, job)
				cfg := conformanceConfig()
				cfg.Speculative = true
				r, err := New(backend, cfg)
				if err != nil {
					t.Fatal(err)
				}
				on, err := r.Run(job)
				r.Close()
				if err != nil {
					t.Fatalf("%s speculative: %v", job.Kind, err)
				}
				assertSameResult(t, job.Kind, "speculation-off", off, "speculation-on", on)
			}
		})
	}
}

// TestSlowWorkerCommitsItsCapacityShare is the paper's central claim on
// the real backends, read from task counts rather than wall time: on a
// cluster of three workers and one slowed 10x, pull grants hand the
// slow worker no more than its capacity share of the tasks plus the one
// wave of slots each phase grants it at the start. With speculation on,
// duplicates may run but each task commits once, so the counts still
// sum to the task total. The word count is bit-identical throughout.
func TestSlowWorkerCommitsItsCapacityShare(t *testing.T) {
	const fast = 20 * time.Millisecond
	job := &Job{Kind: Wordcount, Input: corpus()}
	for _, backend := range []string{"live", "net"} {
		t.Run(backend, func(t *testing.T) {
			ref := runOn(t, backend, job)
			for _, speculative := range []bool{false, true} {
				cfg := conformanceConfig()
				cfg.Workers, cfg.MappersPerNode, cfg.Reducers = 4, 2, 1
				cfg.Speculative = speculative
				cfg.FaultDelays = []time.Duration{10 * fast, fast, fast, fast}
				res := runOnConfig(t, backend, cfg, job)
				assertSameResult(t, job.Kind, "plain", ref, fmt.Sprintf("slow worker (speculative %v)", speculative), res)

				// Live word count is one phase of map tasks; net adds a
				// reduce phase of cfg.Reducers tasks on its own board.
				tasks := (len(job.Input) + int(cfg.BlockSize) - 1) / int(cfg.BlockSize)
				phases := 1
				if backend == "net" {
					tasks += cfg.Reducers
					phases = 2
				}
				committed := 0
				for _, n := range res.TaskCounts {
					committed += n
				}
				if committed != tasks {
					t.Errorf("speculative %v: TaskCounts %v commit %d tasks, want each of %d once", speculative, res.TaskCounts, committed, tasks)
				}
				// A worker's capacity is its slots over its per-task time.
				var capacity float64
				for _, d := range cfg.FaultDelays {
					capacity += float64(cfg.MappersPerNode) / d.Seconds()
				}
				share := float64(cfg.MappersPerNode) / cfg.FaultDelays[0].Seconds() / capacity
				bound := int(math.Ceil(share*float64(tasks))) + phases*cfg.MappersPerNode
				slow := res.TaskCounts[map[string]string{"live": "node000", "net": "tracker-0"}[backend]]
				t.Logf("speculative %v: slow worker committed %d of %d tasks (bound %d)", speculative, slow, tasks, bound)
				if slow > bound {
					t.Errorf("speculative %v: the slow worker committed %d of %d tasks, want <= %d (capacity share %.3f plus a wave per phase); counts %v",
						speculative, slow, tasks, bound, share, res.TaskCounts)
				}
			}
		})
	}
}

// TestLiveConcurrentRunsKeepTheirOwnTaskCounts runs two jobs at once
// on one live runner: each result's TaskCounts must count its own
// tasks, never the other job's.
func TestLiveConcurrentRunsKeepTheirOwnTaskCounts(t *testing.T) {
	r, err := New("live", conformanceConfig()) // 5 000-byte blocks
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	jobs := []struct {
		job    *Job
		blocks int
	}{
		{&Job{Kind: Wordcount, Input: bytes.Repeat([]byte("word "), 3_000)}, 3},
		{&Job{Kind: Sort, Input: kernels.GenerateSortRecords(7, 350)}, 7},
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := r.Run(j.job)
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for _, n := range res.TaskCounts {
					total += n
				}
				if total != j.blocks {
					t.Errorf("%s: TaskCounts %v sum to %d, want its %d blocks", j.job.Kind, res.TaskCounts, total, j.blocks)
				}
			}
		}()
	}
	wg.Wait()
}

func TestConfigSchedulingValidation(t *testing.T) {
	bad := []Config{
		{MaxAttempts: -1},
		{Workers: 2, FaultDelays: []time.Duration{time.Second}},
		{Workers: 2, FaultDelays: []time.Duration{0, -time.Second}},
	}
	for i, cfg := range bad {
		if _, err := New("live", cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
