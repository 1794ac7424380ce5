package engine

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/rpcnet"
)

// netRunner executes jobs on the socket-backed distributed runtime
// (internal/netmr): NameNode, DataNodes, JobTracker and TaskTrackers
// as TCP daemons on loopback, block data crossing the network stack.
// An AccelFraction of the trackers carry a per-node Cell accelerator;
// cell-mapper jobs offload their pi, aes-ctr and wordcount map tasks
// to it with a bit-identical host fallback on the plain trackers.
type netRunner struct {
	cfg  Config
	clus *netmr.Cluster

	// mu guards seq: Run may be called concurrently, and two jobs
	// colliding on one DFS staging path would corrupt each other's
	// input.
	mu  sync.Mutex
	seq int
}

func init() {
	Register("net", func(cfg Config) (Runner, error) {
		if cfg.Mapper == "empty" {
			return nil, fmt.Errorf("%w: mapper \"empty\" models pure runtime overhead and only exists on the sim backend", ErrUnsupported)
		}
		if cfg.Timeline {
			return nil, fmt.Errorf("%w: Timeline is rendered from the simulated JobTracker's task log and only exists on the sim backend", ErrUnsupported)
		}
		opts := []netmr.ClusterOption{
			netmr.WithSpeculation(cfg.Speculative),
			netmr.WithMaxAttempts(cfg.MaxAttempts),
			netmr.WithTrackerDelays(cfg.FaultDelays),
			netmr.WithDeviceKinds(netDeviceKinds(cfg)),
		}
		if len(cfg.Quotas) > 0 {
			quotas := make(map[string]netmr.Quota, len(cfg.Quotas))
			for tenant, q := range cfg.Quotas {
				quotas[tenant] = netmr.Quota{
					Weight:      q.Weight,
					MaxJobs:     q.MaxJobs,
					MaxTrackers: q.MaxTrackers,
					SpillBytes:  q.SpillBytes,
					MaxQueued:   q.MaxQueued,
				}
			}
			opts = append(opts, netmr.WithQuotas(quotas))
		}
		if cfg.Racks >= 2 {
			opts = append(opts, netmr.WithRacks(cfg.Racks))
		}
		if cfg.SpillMemBytes != 0 {
			opts = append(opts, netmr.WithSpill(cfg.SpillDir, cfg.spillMem(), cfg.spillCodec()))
		}
		// Flow control: with a positive spill watermark, grant ingest
		// and shuffle-fetch credits against it, so the network side of
		// the data plane is bounded the same way the stores are.
		if cfg.SpillMemBytes > 0 {
			opts = append(opts,
				netmr.WithIngestWindow(cfg.SpillMemBytes),
				netmr.WithFetchWindow(cfg.SpillMemBytes))
		}
		if cfg.Codec != "" {
			opts = append(opts, netmr.WithWireCodec(cfg.Codec))
		}
		clus, err := netmr.StartCluster(cfg.Workers, cfg.MappersPerNode,
			cfg.BlockSize, 20*time.Millisecond, opts...)
		if err != nil {
			return nil, err
		}
		return &netRunner{cfg: cfg, clus: clus}, nil
	})
}

// netDeviceKinds derives the cluster's per-tracker device profiles:
// the first AccelFraction of workers carry a device, the same layout
// the live and sim backends use, so one Config builds the same
// hardware everywhere.
func netDeviceKinds(cfg Config) []string {
	kinds := make([]string, cfg.Workers)
	accelerated := cfg.acceleratedNodes(cfg.Workers)
	for i := range kinds {
		if i < accelerated {
			kinds[i] = netmr.DeviceCell
		} else {
			kinds[i] = netmr.DeviceHost
		}
	}
	return kinds
}

// Backend implements Runner.
func (r *netRunner) Backend() string { return "net" }

// Close implements Runner: stops every daemon.
func (r *netRunner) Close() error {
	r.clus.Shutdown()
	return nil
}

// Cluster exposes the running deployment (daemon addresses, tracker
// devices etc.) for callers that need backend-specific detail.
func (r *netRunner) Cluster() *netmr.Cluster { return r.clus }

// reducers resolves the distributed-shuffle reduce-task count for data
// jobs whose kernel supports partitioned output: the configured
// partition count, defaulting to one reduce task per worker.
func (r *netRunner) reducers() int {
	if r.cfg.Reducers > 0 {
		return r.cfg.Reducers
	}
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return 1
}

// stageInput streams src (the job's dataset, possibly wrapped in a
// sampling pass) into the distributed FS under the client's ingest
// window.
func (r *netRunner) stageInput(job *Job, src io.Reader) (string, error) {
	r.mu.Lock()
	r.seq++
	name := fmt.Sprintf("/engine/%s-%d", job.title(), r.seq)
	r.mu.Unlock()
	if _, err := r.clus.Client.WriteFrom(name, src, ""); err != nil {
		return "", err
	}
	return name, nil
}

// rangeSampleCap sizes the reservoir for the split-key sampling pass:
// enough keys for stable quantiles at the given reducer count, capped
// so the sample never rivals the data.
func rangeSampleCap(reducers int) int {
	n := 100 * reducers
	if n < 1_000 {
		n = 1_000
	}
	if n > 100_000 {
		n = 100_000
	}
	return n
}

// buildSpec validates and expands an engine job into its netmr job
// spec, staging the dataset into the DFS for data kinds. Encrypt jobs
// with a Sink stream their output (the pieces stay on the trackers
// until the client pulls them).
func (r *netRunner) buildSpec(job *Job) (netmr.JobSpec, error) {
	spec := netmr.JobSpec{
		Name:   job.title(),
		Mapper: r.cfg.Mapper,
		Tenant: job.Tenant,
	}
	switch job.Kind {
	case Wordcount, Sort:
		src := job.inputReader()
		reducers := r.reducers()
		var sampler *kernels.RecordKeySampler
		if job.Kind == Sort && r.cfg.RangePartition {
			// The sampling pass rides the staging stream: ingest is read
			// exactly once, and the reservoir costs O(sample) memory.
			spec.StreamOutput = true
			if reducers > 1 {
				seed := job.Seed
				if seed == 0 {
					seed = DefaultSeed
				}
				sampler = kernels.NewRecordKeySampler(src, rangeSampleCap(reducers), uint64(seed))
				src = sampler
			}
		}
		input, err := r.stageInput(job, src)
		if err != nil {
			return spec, err
		}
		spec.Kernel = string(job.Kind)
		spec.Input = input
		spec.NumReducers = reducers
		if sampler != nil {
			// Quantile split keys from the reservoir; an empty input
			// yields none, falling back to hash routing of nothing.
			spec.SplitKeys = sampler.SplitKeys(reducers)
		}
	case Encrypt:
		input, err := r.stageInput(job, job.inputReader())
		if err != nil {
			return spec, err
		}
		args, err := rpcnet.Marshal(netmr.AESArgs{
			Key: job.Key, IV: job.iv(), BlockBytes: r.cfg.BlockSize,
		})
		if err != nil {
			return spec, err
		}
		spec.Kernel = "aes-ctr"
		spec.Input = input
		spec.Args = args
		spec.StreamOutput = job.Sink != nil
	case Pi:
		seed := job.Seed
		if seed == 0 {
			seed = DefaultSeed
		}
		spec.Kernel = "pi"
		spec.Samples = job.Samples
		spec.NumTasks = normalizeTasks(job.Tasks, r.cfg.Workers)
		spec.Seed = seed
	default:
		return spec, fmt.Errorf("%w: %s on net", ErrUnsupported, job.Kind)
	}
	return spec, nil
}

// netJob is one job submitted to the running cluster and not yet
// collected.
type netJob struct {
	r       *netRunner
	job     *Job
	id      int64
	started time.Time
	// input is the job's staged dataset in the DFS ("" for Pi); wait
	// deletes it.
	input string
	// streamed: the job was submitted with StreamOutput, so its result
	// is pulled from the trackers instead of riding the Status reply.
	streamed bool
	// Fetch-locality counter snapshot at submission; wait() reports
	// the delta as the job's read-locality split.
	local0, rack0, remote0 int64
}

// start validates, stages and submits one job, returning the handle to
// collect it with.
func (r *netRunner) start(job *Job) (*netJob, error) {
	if err := r.cfg.validateJob(job); err != nil {
		return nil, err
	}
	spec, err := r.buildSpec(job)
	if err != nil {
		return nil, err
	}
	l0, rk0, rm0 := r.clus.FetchTotals()
	id, err := r.clus.Client.Submit(spec)
	if err != nil {
		if spec.Input != "" {
			// Not admitted: nothing will ever read the staged dataset.
			// The rejection is the error to report, not a failed cleanup.
			_ = r.clus.Client.DeleteFile(spec.Input)
		}
		return nil, err
	}
	return &netJob{r: r, job: job, id: id, started: time.Now(), input: spec.Input,
		streamed: spec.StreamOutput, local0: l0, rack0: rk0, remote0: rm0}, nil
}

// wait blocks until the job completes and decodes its result by kind.
// There are two ways a result arrives. A streamed job (range-partitioned
// Sort; Encrypt with a Sink) left its final-phase task outputs on the
// trackers, and their concatenation in task order is the result:
// WaitOutput pulls it one bounded chunk at a time into the Sink, or
// into a buffer when the caller wants Result.Bytes — the JobTracker
// never holds it. Every other job's reduced result rides the terminal
// Status reply. Sort and Encrypt results are the raw bytes; Wordcount
// and Pi are gob structs. Either way the job is over once the wait
// returns — collected, failed or abandoned at its deadline — and its
// staged input is deleted, so a long-lived runner's DataNodes hold only
// the datasets of jobs in flight.
func (nj *netJob) wait() (*Result, error) {
	r, job := nj.r, nj.job
	res := &Result{Backend: r.Backend()}
	var (
		raw  []byte // the result, unless a streamed job wrote it to job.Sink
		sunk int64  // bytes a streamed job wrote to job.Sink
		st   netmr.StatusReply
		err  error
	)
	if nj.streamed {
		var buf bytes.Buffer
		sink := job.Sink
		if sink == nil {
			sink = &buf
		}
		sunk, st, err = r.clus.Client.WaitOutput(nj.id, r.cfg.JobTimeout, sink)
		raw = buf.Bytes()
	} else {
		st, err = r.clus.Client.WaitStatus(nj.id, r.cfg.JobTimeout)
		raw = st.Result
	}
	if nj.input != "" {
		if derr := r.clus.Client.DeleteFile(nj.input); err == nil {
			err = derr
		}
	}
	if err != nil {
		return nil, err
	}
	res.TaskCounts, res.Devices = st.Counts, st.Devices
	switch job.Kind {
	case Wordcount:
		var counts map[string]int64
		if err := rpcnet.Unmarshal(raw, &counts); err != nil {
			return nil, err
		}
		res.Pairs = pairsFromCounts(counts)
	case Sort, Encrypt:
		switch {
		case job.Sink == nil:
			res.Bytes = raw
		case nj.streamed:
			res.OutputBytes = sunk
		default:
			// A hash-partitioned sort is globally sorted only after the
			// JobTracker's final merge, so its Sink receives that merged
			// result in one write (Config.RangePartition is the
			// streamed, merge-free path).
			n, err := job.Sink.Write(raw)
			if err != nil {
				return nil, err
			}
			res.OutputBytes = int64(n)
		}
	case Pi:
		var pi netmr.PiResult
		if err := rpcnet.Unmarshal(raw, &pi); err != nil {
			return nil, err
		}
		res.Pi, res.Inside, res.Total = pi.Pi, pi.Inside, pi.Total
	}
	l1, rk1, rm1 := r.clus.FetchTotals()
	res.LocalReads = l1 - nj.local0
	res.RackReads = rk1 - nj.rack0
	res.RemoteReads = rm1 - nj.remote0
	res.Elapsed = time.Since(nj.started)
	return res, nil
}

// Run implements Runner as submit-then-wait over the job service, so
// the one-shot path and Client.Submit exercise the same machinery. It
// is safe for concurrent use: each call stages its input under a
// distinct DFS path, and the netmr client multiplexes concurrent
// calls over its pooled connections.
func (r *netRunner) Run(job *Job) (*Result, error) {
	nj, err := r.start(job)
	if err != nil {
		return nil, err
	}
	return nj.wait()
}

// Submit implements the Client's native submission hook: the job runs
// on the cluster while the caller holds the handle, Kill reaches the
// JobTracker's Kill RPC, and Status polls live progress.
func (r *netRunner) Submit(job *Job) (*JobHandle, error) {
	nj, err := r.start(job)
	if err != nil {
		return nil, err
	}
	return newJobHandle(
		nj.wait,
		func() error { return r.clus.Client.Kill(nj.id, job.Tenant) },
		func() (JobStatus, error) {
			st, err := r.clus.Client.Status(nj.id)
			if err != nil {
				return JobStatus{}, err
			}
			return JobStatus{
				Done:      st.Done,
				Completed: st.Completed,
				Total:     st.Total,
				Err:       st.Err,
			}, nil
		},
	), nil
}
