package engine

import (
	"fmt"
	"sync"
	"time"

	"hetmr/internal/core"
	"hetmr/internal/kernels"
	"hetmr/internal/sched"
	"hetmr/internal/spurt"
)

// liveRunner executes jobs on the in-process two-level cluster
// (internal/core): real bytes in the in-memory DFS, goroutine-backed
// nodes, real kernels, SPE offload through the functional Cell model.
type liveRunner struct {
	cfg  Config
	clus *core.LiveCluster

	// mu serialises Runs: the cluster is not goroutine-safe, and each
	// job reads its TaskCounts back from the cluster's LastStats. It
	// also guards seq, which names each job's DFS staging path.
	mu  sync.Mutex
	seq int
}

func init() {
	// The fairness knobs below only exist on the net backend's job
	// service; the in-process cluster runs one caller's job at a time.
	//hetlint:configdrop-ok live Job.Tenant tenancy is the net job service's concept; Quotas are already rejected above the same line
	//
	// JobTimeout bounds the net backend's remote wait; a live Run is a
	// synchronous in-process call with nothing to abandon.
	//hetlint:configdrop-ok live Config.JobTimeout live runs synchronously in-process; the knob bounds the net backend's remote wait
	//hetlint:configdrop-ok live Config.Reducers live word count merges block tables in its commit hook and live sort merges every run at once; a partition count never changed a live result

	Register("live", func(cfg Config) (Runner, error) {
		if cfg.Mapper == "empty" {
			return nil, fmt.Errorf("%w: mapper \"empty\" models pure runtime overhead and only exists on the sim backend", ErrUnsupported)
		}
		if len(cfg.Quotas) > 0 {
			return nil, fmt.Errorf("%w: per-tenant quotas only exist on the net backend's job service", ErrUnsupported)
		}
		clus, err := core.NewLiveCluster(core.Config{
			Nodes:            cfg.Workers,
			BlockSize:        cfg.BlockSize,
			MappersPerNode:   cfg.MappersPerNode,
			AcceleratedNodes: cfg.acceleratedNodes(),
			Sched:            sched.Options{Speculative: cfg.Speculative, MaxAttempts: cfg.MaxAttempts},
			TaskDelays:       cfg.FaultDelays,
			SpillMem:         cfg.SpillMemBytes,
			SpillDir:         cfg.SpillDir,
		})
		if err != nil {
			return nil, err
		}
		return &liveRunner{cfg: cfg, clus: clus}, nil
	})
}

// Backend implements Runner.
func (r *liveRunner) Backend() string { return "live" }

// Close implements Runner: releases the DFS block store's spill files.
func (r *liveRunner) Close() error { return r.clus.Close() }

// Cluster exposes the underlying live cluster for callers that need
// backend-specific detail (DMA accounting, direct SPE runs).
func (r *liveRunner) Cluster() *core.LiveCluster { return r.clus }

// stageInput streams the job's dataset into the DFS under a fresh
// path — one transfer buffer plus one block resident, never the whole
// dataset. Callers hold r.mu.
func (r *liveRunner) stageInput(job *Job) (string, error) {
	r.seq++
	name := fmt.Sprintf("/engine/%s-%d", job.title(), r.seq)
	if _, err := r.clus.FS.CreateFrom(name, "", job.inputReader()); err != nil {
		return "", err
	}
	return name, nil
}

// Run implements Runner. A data job's dataset is staged into the DFS
// and deleted when the job ends, so a long-lived runner's DFS holds
// only the job in flight; Sort and Encrypt write their result through
// the job's output, never into the DFS.
func (r *liveRunner) Run(job *Job) (*Result, error) {
	if err := r.cfg.validateJob(job); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	res := &Result{Backend: r.Backend()}
	var input string
	if job.Kind != Pi {
		var err error
		if input, err = r.stageInput(job); err != nil {
			return nil, err
		}
		// Staging created the file and nothing else deletes it, so the
		// delete cannot fail.
		defer r.clus.FS.Delete(input)
	}
	switch job.Kind {
	case Wordcount:
		counts, err := r.clus.RunWordCount(input)
		if err != nil {
			return nil, err
		}
		res.Pairs = pairsFromCounts(counts)
	case Sort:
		w, finish := job.output()
		if err := r.clus.RunSort(input, w); err != nil {
			return nil, err
		}
		finish(res)
	case Encrypt:
		cipher, err := kernels.NewCipher(job.Key)
		if err != nil {
			return nil, err
		}
		w, finish := job.output()
		if err := r.clus.RunStream(&core.StreamJob{
			Name:  job.title(),
			Input: input,
			Kernel: spurt.KernelFunc{
				KernelName: "aes-ctr",
				Fn:         kernels.CTRBlockFuncFast(cipher, job.iv()),
			},
			Accelerated: r.cfg.Mapper != "java",
		}, w); err != nil {
			return nil, err
		}
		finish(res)
	case Pi:
		tasks := piTasks(job.Samples, normalizeTasks(job.Tasks, r.cfg.Workers), job.Seed)
		inside, total, err := r.clus.RunPiTasks(tasks)
		if err != nil {
			return nil, err
		}
		res.Inside, res.Total = inside, total
		res.Pi = kernels.EstimatePi(inside, total)
	}
	if stats := r.clus.LastStats(); stats != nil {
		res.TaskCounts = stats.Counts()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
