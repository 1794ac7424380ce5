package engine

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/perfmodel"
	"hetmr/internal/rpcnet"
)

// netRunner executes jobs on the socket-backed distributed runtime
// (internal/netmr): NameNode, DataNodes, JobTracker and TaskTrackers as
// TCP daemons, block data crossing the network stack. It is a netmr
// client plus, optionally, the cluster behind it. The registered "net"
// backend boots its own on loopback and owns it: an AccelFraction of the
// trackers carry a per-node Cell accelerator, and cell-mapper jobs
// offload their pi, aes-ctr and wordcount map tasks to it with a
// bit-identical host fallback on the plain trackers. Dial attaches to a
// service somebody else runs.
type netRunner struct {
	cfg    Config
	client *netmr.Client
	// clus is the cluster this runner booted and will shut down; nil
	// when attached to a running service.
	clus *netmr.Cluster
	// workers sizes the defaults that scale with the fleet (reduce tasks,
	// Pi tasks): Config.Workers, or an attached service's tracker count.
	workers int
	// nonce is an attached runner's per-process random staging
	// directory; "" when booted.
	nonce string

	// mu guards seq: Run may be called concurrently, and two jobs
	// colliding on one DFS staging path would corrupt each other's
	// input.
	mu  sync.Mutex
	seq int
}

// netRejects refuses the sim-only "empty" mapper, for the booted and
// the attached runner alike.
func netRejects(cfg Config) error {
	if cfg.Mapper == "empty" {
		return fmt.Errorf("%w: mapper \"empty\" models pure runtime overhead and only exists on the sim backend", ErrUnsupported)
	}
	return nil
}

func init() {
	Register("net", func(cfg Config) (Runner, error) {
		if err := netRejects(cfg); err != nil {
			return nil, err
		}
		clus, err := netmr.StartCluster(netmr.Config{
			Workers:   cfg.Workers,
			Slots:     cfg.MappersPerNode,
			BlockSize: cfg.BlockSize,
			Heartbeat: 20 * time.Millisecond,
			// It holds only staged input, deleted as each job ends: the
			// paper's replication 1 puts a block once, and a lost
			// DataNode fails the job.
			Replication: perfmodel.ReplicationFactor,
			Speculative: cfg.Speculative,
			MaxAttempts: cfg.MaxAttempts,
			Quotas:      cfg.Quotas,
			Devices:     netDeviceKinds(cfg),
			TaskDelays:  cfg.FaultDelays,
			SpillMem:    cfg.SpillMemBytes,
			SpillDir:    cfg.SpillDir,
		})
		if err != nil {
			return nil, err
		}
		return &netRunner{cfg: cfg, client: clus.Client, clus: clus, workers: cfg.Workers}, nil
	})
}

// Dial attaches to a running net job service (mrsim -serve, or any netmr
// NameNode/JobTracker pair) and returns a Client that stages, submits
// and collects jobs exactly as the booted "net" backend does, without
// owning a daemon. Of cfg it reads BlockSize (how this client cuts staged
// input), Mapper, Reducers and JobTimeout. The fields that shape a
// cluster — Workers, MappersPerNode, AccelFraction, Speculative,
// MaxAttempts, FaultDelays, Quotas, Spill* — describe the service
// and are not consulted: defaults that scale with the fleet (Reducers 0,
// Job.Tasks 0) use the service's tracker count as of the Dial. The
// runner reports a nil Cluster and zero read-locality counters, and
// Close closes the connections only.
func Dial(nnAddr, jtAddr string, cfg Config) (*Client, error) {
	if nnAddr == "" || jtAddr == "" {
		return nil, errors.New("engine: Dial needs both a NameNode and a JobTracker address")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := netRejects(cfg); err != nil {
		return nil, err
	}
	client, err := netmr.NewClient(nnAddr, jtAddr, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	trackers, err := client.ListTrackers()
	if err != nil {
		client.Close()
		return nil, err
	}
	// The NameNode appends to a name that exists, so a staging name two
	// attached processes could both produce would interleave their
	// blocks: the nonce makes this process's names its own.
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		client.Close()
		return nil, err
	}
	return NewClient(&netRunner{cfg: cfg, client: client,
		workers: max(len(trackers), 1), nonce: hex.EncodeToString(nonce[:])}), nil
}

// netDeviceKinds derives the cluster's per-tracker device profiles:
// the first AccelFraction of workers carry a device, the same layout
// the live and sim backends use, so one Config builds the same
// hardware everywhere.
func netDeviceKinds(cfg Config) []string {
	kinds := make([]string, cfg.Workers)
	accelerated := cfg.acceleratedNodes()
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

// Close implements Runner: stops every daemon of a booted cluster, or
// just the connections of an attached one.
func (r *netRunner) Close() error {
	if r.clus == nil {
		return r.client.Close()
	}
	r.clus.Shutdown()
	return nil
}

// Cluster exposes the deployment this runner booted (daemon addresses,
// tracker devices etc.) for callers that need backend-specific detail;
// nil when the runner is attached to a service it does not own.
func (r *netRunner) Cluster() *netmr.Cluster { return r.clus }

// fetchTotals reads the cluster-wide block-fetch locality counters; an
// attached runner cannot see the service's trackers and reads zeros.
func (r *netRunner) fetchTotals() (local, remote int64) {
	if r.clus == nil {
		return 0, 0
	}
	return r.clus.FetchTotals()
}

// reducers resolves the reduce-task count for data jobs whose kernel
// shuffles: the configured partition count, defaulting to one reduce
// task per worker.
func (r *netRunner) reducers() int {
	if r.cfg.Reducers > 0 {
		return r.cfg.Reducers
	}
	return r.workers
}

// stageInput streams src (the job's dataset, possibly wrapped in a
// sampling pass) into the distributed FS under the client's ingest
// window. A booted cluster's namespace is this runner's alone, so the
// sequence number makes the name unique; an attached runner adds the
// tenant and its process nonce.
func (r *netRunner) stageInput(job *Job, src io.Reader) (string, error) {
	r.mu.Lock()
	r.seq++
	name := fmt.Sprintf("/engine/%s-%d", job.title(), r.seq)
	if r.nonce != "" {
		name = fmt.Sprintf("/engine/%s/%s/%s-%d", cmp.Or(job.Tenant, netmr.DefaultTenant), r.nonce, job.title(), r.seq)
	}
	r.mu.Unlock()
	if _, err := r.client.WriteFrom(name, src, ""); err != nil {
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
// spec, staging the dataset into the DFS for data kinds. The spec names
// a kernel and its inputs; which route the result takes is the kernel's
// property (netmr.MapKernel), not something set here.
func (r *netRunner) buildSpec(job *Job) (netmr.JobSpec, error) {
	spec := netmr.JobSpec{
		Name:   job.title(),
		Mapper: r.cfg.Mapper,
		Tenant: job.Tenant,
	}
	switch job.Kind {
	case Wordcount, Sort:
		src := job.inputReader()
		spec.NumReducers = r.reducers()
		var sampler *kernels.RecordKeySampler
		if job.Kind == Sort && spec.NumReducers > 1 {
			// A sort's reducers own contiguous key ranges cut from a
			// reservoir sample of the keys. The sampling pass rides the
			// staging stream: ingest is read exactly once, and the
			// reservoir costs O(sample) memory.
			sampler = kernels.NewRecordKeySampler(src, rangeSampleCap(spec.NumReducers), job.seed())
			src = sampler
		}
		input, err := r.stageInput(job, src)
		if err != nil {
			return spec, err
		}
		spec.Kernel = string(job.Kind)
		spec.Input = input
		if sampler != nil {
			// An empty input yields no keys: one reducer merges nothing.
			if spec.SplitKeys = sampler.SplitKeys(spec.NumReducers); spec.SplitKeys == nil {
				spec.NumReducers = 1
			}
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
	case Pi:
		spec.Kernel = "pi"
		spec.Samples = job.Samples
		spec.NumTasks = normalizeTasks(job.Tasks, r.workers)
		spec.Seed = job.Seed
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
	// Fetch-locality counter snapshot at submission; wait() reports
	// the delta as the job's read-locality split.
	local0, remote0 int64
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
	l0, rm0 := r.fetchTotals()
	id, err := r.client.Submit(spec)
	if err != nil {
		if spec.Input != "" {
			// Not admitted: nothing will ever read the staged dataset.
			// The rejection is the error to report, not a failed cleanup.
			_ = r.client.DeleteFile(spec.Input)
		}
		return nil, err
	}
	return &netJob{r: r, job: job, id: id, started: time.Now(), input: spec.Input,
		local0: l0, remote0: rm0}, nil
}

// wait blocks until the job completes and decodes its result by kind.
// A byte-stream kind (Sort, Encrypt) left its final-phase task outputs
// on the trackers, and their concatenation in task order is the result:
// WaitOutput pulls it one bounded chunk at a time into the job's
// output — the JobTracker never holds it. A structured kind's
// (Wordcount, Pi) partials ride the terminal Status reply, and
// WaitStatus folds them into one gob struct with the kernel's Reduce.
// Either way the job is over once the wait returns — collected, failed
// or abandoned at its deadline — and its staged input is deleted, so a
// long-lived service's DataNodes hold only the datasets of jobs in
// flight.
func (nj *netJob) wait() (*Result, error) {
	r, job := nj.r, nj.job
	res := &Result{Backend: r.Backend()}
	var (
		finish func(*Result) // records a byte-stream result
		st     netmr.StatusReply
		err    error
	)
	if job.Kind == Sort || job.Kind == Encrypt {
		var w io.Writer
		w, finish = job.output()
		st, err = r.client.WaitOutput(nj.id, r.cfg.JobTimeout, w)
	} else {
		st, err = r.client.WaitStatus(nj.id, r.cfg.JobTimeout)
	}
	if nj.input != "" {
		if derr := r.client.DeleteFile(nj.input); err == nil {
			err = derr
		}
	}
	if err != nil {
		return nil, err
	}
	res.TaskCounts, res.Devices = st.Counts, st.Devices
	switch job.Kind {
	case Wordcount:
		if res.Pairs, err = pairsFromRun(st.Result); err != nil {
			return nil, err
		}
	case Sort, Encrypt:
		finish(res)
	case Pi:
		var pi netmr.PiResult
		if err := rpcnet.Unmarshal(st.Result, &pi); err != nil {
			return nil, err
		}
		res.Pi, res.Inside, res.Total = pi.Pi, pi.Inside, pi.Total
	}
	l1, rm1 := r.fetchTotals()
	res.LocalReads = l1 - nj.local0
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
		func() error { return r.client.Kill(nj.id, job.Tenant) },
		func() (JobStatus, error) {
			st, err := r.client.Status(nj.id)
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
