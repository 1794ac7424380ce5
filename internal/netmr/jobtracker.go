package netmr

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/metrics"
	"hetmr/internal/rpcnet"
	"hetmr/internal/sched"
)

// ErrQuotaExceeded is the typed admission-control rejection: a Submit
// that would push its tenant past a configured quota (concurrent jobs
// or spill budget) fails with an error wrapping this sentinel, both at
// the JobTracker handler and — rewrapped across the RPC boundary — at
// Client.Submit.
var ErrQuotaExceeded = errors.New("netmr: tenant quota exceeded")

// jobRecord is one submitted job: its task specs plus the dynamic
// scheduler's boards tracking leases, attempts and completions — one
// board for the map phase, and for a shuffle job a second for the
// reduce phase, whose tasks become assignable once every map partition
// is in place. The job's route is two booleans read off the kernel
// table (see MapKernel); nothing the submitter sets picks it.
type jobRecord struct {
	id     int64
	tenant string
	spec   JobSpec
	kern   MapKernel
	// shuffle: the kernel has Partition+Merge and this is a data job, so
	// the distributed shuffle/reduce plane runs.
	shuffle bool
	// streamOut: the kernel has no Reduce, so final-phase outputs stay
	// in the worker trackers' stores; outLoc records each piece's
	// address, Status serves the refs, and the stores free them only
	// after the client Releases the job. Otherwise partials holds the
	// final-phase outputs themselves, for the kernel's Reduce.
	streamOut bool
	outLoc    []string
	partials  [][]byte
	released  bool
	// queued: admitted into the tenant's over-quota queue, holding a
	// job ID but no scheduler state until quota frees up and the job
	// promotes to the tenant's active list.
	queued bool

	maps     []Task
	mapBoard *sched.Board
	mapLoc   []string // shuffle job: shuffle-store addr per map task
	mapDone  int
	// mapPartBytes records each winning map attempt's per-partition
	// stored sizes (TaskResult.PartBytes); once every map is done they
	// drive the LPT reduce order and the redHome locality hints.
	mapPartBytes [][]int64
	// redHome is, per reduce partition, the shuffle address holding the
	// most of its bytes — the reduce-grant locality hint. Nil until
	// every map partition (with size data) is in place.
	redHome []string

	reduces  []Task // shuffle job: reduce task templates, TaskID = partition
	redBoard *sched.Board
	redDone  int
	// fetchFails counts distinct reduce-fetch failure reports per
	// shuffle-store address; a store is declared lost (its map tasks
	// reopened) only at fetchFailThreshold, so one transient dial
	// error never discards finished map work.
	fetchFails map[string]int

	finalizing bool
	done       bool
	failed     string
	result     []byte
	// terminal is closed by terminate — the one edge every finished,
	// failed or killed job crosses — and is what a held Status call
	// parks on.
	terminal chan struct{}
}

// finalPhaseDone reports whether every task of the job's last phase has
// completed. Callers hold jt.mu.
func (rec *jobRecord) finalPhaseDone() bool {
	if rec.shuffle {
		return rec.redDone == len(rec.reduces)
	}
	return rec.mapDone == len(rec.maps)
}

// keepFinal records a winning final-phase task's output: where it is
// parked, or the partial itself. Callers hold jt.mu.
func (rec *jobRecord) keepFinal(res TaskResult) {
	if rec.streamOut {
		rec.outLoc[res.TaskID] = res.ShuffleAddr
	} else {
		rec.partials[res.TaskID] = res.Output
	}
}

// reduceTask materializes reduce task p with the current map output
// locations. Callers hold jt.mu and guarantee every map is done.
func (rec *jobRecord) reduceTask(p int) Task {
	t := rec.reduces[p]
	t.Inputs = make([]MapOutputRef, len(rec.maps))
	for i, addr := range rec.mapLoc {
		t.Inputs[i] = MapOutputRef{MapTask: i, Part: p, Addr: addr}
	}
	return t
}

// JobTracker is the TCP master daemon: it expands jobs into tasks and
// serves them to TaskTrackers over heartbeats through the shared
// dynamic scheduler (internal/sched.Board) — pull-based leases with
// locality preference, re-issue of tasks whose lease expires (tracker
// failure) or whose attempt reports an error (fast failure path), and
// optional speculative duplication of the longest-running in-flight
// task when a tracker has idle slots, first finished attempt winning.
//
// The JobTracker is a pure control plane: shuffle partitions and
// byte-stream results stay in the trackers' stores and heartbeats carry
// their locations, not data. Only the structured kernels' final-phase
// partials (small gob structs) cross it; DataPlaneBytes meters exactly
// that traffic.
//
// Job records are retained, not kept forever: a job's task outputs are
// dropped the moment it turns terminal (only its reduced result stays),
// and once more than retainJobs terminal records exist the oldest are
// forgotten — except a streamed job the client has not yet Released,
// whose stored outputs the record still guards. Status, Kill and
// Release on a forgotten ID answer "unknown job", exactly as for an ID
// that was never issued.
type JobTracker struct {
	srv    *rpcnet.Server
	nnAddr string
	// wire caches the pooled NameNode connection expand looks blocks up
	// on.
	wire *connCache
	// TaskLease is how long an assigned task may stay silent before it
	// is handed to another tracker. Read at job submission; set it (and
	// the scheduling knobs below) before submitting jobs.
	TaskLease time.Duration
	// Speculative enables speculative duplicates for subsequently
	// submitted jobs; MaxAttempts caps per-task attempts (0: the
	// scheduler default).
	Speculative bool
	MaxAttempts int
	// DeadAfter is how long a tracker may stay silent before the
	// liveness sweep declares it dead and proactively reopens the map
	// outputs recorded at its shuffle store — the authoritative
	// promotion of the read-side fetch-failure path. Zero disables the
	// sweep (leases and fetch failures still recover, just lazily).
	// Set before trackers heartbeat.
	DeadAfter time.Duration

	mu        sync.Mutex
	nextJob   int64
	jobs      map[int64]*jobRecord
	finished  []int64 // terminal job IDs still in jobs, oldest first
	tenants   map[string]*tenantState
	fair      *sched.FairShare
	trackers  map[string]*trackerState   // membership view, keyed by tracker ID
	held      map[string]map[int64]int64 // tracker ID -> job -> resident store bytes
	dataBytes int64                      // task output bytes carried by heartbeats

	stop chan struct{}
	done chan struct{}
}

// trackerState is one TaskTracker's row in the JobTracker's membership
// view, built entirely from heartbeats: the first beat registers the
// tracker, later ones refresh liveness, and a beat after a declared
// death rejoins it cleanly.
type trackerState struct {
	id          string
	rack        string
	device      string
	localDN     string
	shuffleAddr string
	lastSeen    time.Time
	draining    bool
	dead        bool
}

func (t *trackerState) state() string {
	switch {
	case t.dead:
		return NodeDead
	case t.draining:
		return NodeDraining
	default:
		return NodeAlive
	}
}

// tenantState is one tenant's slice of the multi-tenant service: its
// quota, its active (non-terminal) jobs in submission order, an
// admission queue of over-quota submissions waiting to promote, and a
// cumulative grant counter for fair-share observability.
type tenantState struct {
	quota   Quota
	jobs    []int64 // active job IDs, oldest first
	queue   []int64 // queued (over-quota) job IDs, oldest first
	granted int64   // cumulative task grants (incl. speculative)
}

// TenantStat is one tenant's scheduling and accounting view, as
// reported by TenantStats.
type TenantStat struct {
	Weight     float64 // fair-share weight (>= 1 nominal unit)
	ActiveJobs int     // jobs submitted and not yet terminal
	Granted    int64   // cumulative task grants across all heartbeats
	HeldBytes  int64   // resident shuffle/spill bytes across trackers
}

// StartJobTracker launches the JobTracker on addr.
func StartJobTracker(addr, nameNodeAddr string) (*JobTracker, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	jt := &JobTracker{
		srv:       srv,
		nnAddr:    nameNodeAddr,
		wire:      newConnCache(""),
		TaskLease: 10 * time.Second,
		jobs:      make(map[int64]*jobRecord),
		tenants:   make(map[string]*tenantState),
		fair:      sched.NewFairShare(),
		trackers:  make(map[string]*trackerState),
		held:      make(map[string]map[int64]int64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	srv.Handle("Submit", jt.handleSubmit)
	srv.Handle("Heartbeat", jt.handleHeartbeat)
	srv.Handle("Status", jt.handleStatus)
	srv.Handle("Release", jt.handleRelease)
	srv.Handle("Kill", jt.handleKill)
	srv.Handle("ListJobs", jt.handleListJobs)
	srv.Handle("DecommissionTracker", jt.handleDecommissionTracker)
	srv.Handle("ListTrackers", jt.handleListTrackers)
	go jt.sweep()
	return jt, nil
}

// sweep is the tracker-liveness loop: when DeadAfter is set, trackers
// that miss it are declared dead and the map outputs their shuffle
// stores held are reopened immediately — the lost-work recovery that
// previously waited for a reducer's repeated fetch failures now runs
// from the authoritative membership view. Pure in-memory state: no RPC
// under (or outside) the lock.
func (jt *JobTracker) sweep() {
	defer close(jt.done)
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-jt.stop:
			return
		case <-ticker.C:
		}
		jt.mu.Lock()
		if jt.DeadAfter > 0 {
			now := time.Now()
			for _, t := range jt.trackers {
				if !t.dead && now.Sub(t.lastSeen) > jt.DeadAfter {
					t.dead = true
					jt.reopenLostOutputs(t.shuffleAddr)
				}
			}
		}
		jt.mu.Unlock()
	}
}

// reopenLostOutputs reopens every unfinished job's tasks whose stored
// output lived at the dead tracker's shuffle address: shuffle-path map
// outputs and streamed final-phase pieces alike are recomputed
// elsewhere. Callers hold jt.mu.
func (jt *JobTracker) reopenLostOutputs(shuffleAddr string) {
	if shuffleAddr == "" {
		return
	}
	for _, rec := range jt.jobs {
		if rec.done || rec.finalizing {
			continue
		}
		for i, loc := range rec.mapLoc {
			if loc == shuffleAddr {
				rec.mapBoard.Reopen(i)
				rec.mapLoc[i] = ""
				rec.mapPartBytes[i] = nil
				rec.mapDone--
				rec.unplanReduces()
			}
		}
		if !rec.streamOut {
			continue
		}
		for i, loc := range rec.outLoc {
			if loc != shuffleAddr {
				continue
			}
			if rec.shuffle {
				rec.redBoard.Reopen(i)
				rec.redDone--
			} else {
				rec.mapBoard.Reopen(i)
				rec.mapDone--
			}
			rec.outLoc[i] = ""
		}
	}
}

// SetQuota installs (or replaces) tenant's quota and fair-share
// weight. Call any time; new limits apply to subsequent Submits and
// grant passes. The zero Quota means unlimited at weight 1.
func (jt *JobTracker) SetQuota(tenant string, q Quota) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.tenant(tenant).quota = q
	jt.fair.SetWeight(tenant, q.Weight)
	// A raised limit may open headroom for queued submissions.
	jt.promote(tenant)
}

// tenant returns tenant's state, creating it on first sight. Callers
// hold jt.mu.
func (jt *JobTracker) tenant(name string) *tenantState {
	ts := jt.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		jt.tenants[name] = ts
		jt.fair.SetWeight(name, 1)
	}
	return ts
}

// TenantStats reports every known tenant's scheduling and accounting
// state — the observability hook the fair-share and quota tests (and a
// service operator) read.
func (jt *JobTracker) TenantStats() map[string]TenantStat {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	out := make(map[string]TenantStat, len(jt.tenants))
	for name, ts := range jt.tenants {
		out[name] = TenantStat{
			Weight:     jt.fair.Weight(name),
			ActiveJobs: len(ts.jobs),
			Granted:    ts.granted,
			HeldBytes:  jt.tenantHeldBytes(name),
		}
	}
	return out
}

// tenantHeldBytes sums the resident store bytes trackers reported for
// tenant's jobs — the figure a SpillBytes quota bounds. Callers hold
// jt.mu.
func (jt *JobTracker) tenantHeldBytes(name string) int64 {
	var total int64
	for _, byJob := range jt.held {
		for id, n := range byJob {
			if rec, ok := jt.jobs[id]; ok && rec.tenant == name {
				total += n
			}
		}
	}
	return total
}

// retainJobs is how many terminal job records the JobTracker keeps for
// late Status calls before forgetting the oldest.
const retainJobs = 64

// terminate marks rec terminal — waking every Status call parked on it
// and dropping the task outputs only the final fold needed — and
// deregisters it from its tenant's active (and admission-queue) lists;
// freed quota promotes queued submissions, and an emptied tenant resets
// its fair-share deficit (the DRR empty-queue rule). rec.failed /
// rec.result must already reflect the outcome. Callers hold jt.mu.
func (jt *JobTracker) terminate(rec *jobRecord) {
	rec.done = true
	rec.partials = nil
	close(rec.terminal)
	jt.finished = append(jt.finished, rec.id)
	jt.retire()
	ts := jt.tenants[rec.tenant]
	if ts == nil {
		return
	}
	ts.jobs = slices.DeleteFunc(ts.jobs, func(id int64) bool { return id == rec.id })
	ts.queue = slices.DeleteFunc(ts.queue, func(id int64) bool { return id == rec.id })
	jt.promote(rec.tenant)
	if len(ts.jobs) == 0 {
		jt.fair.Idle(rec.tenant)
	}
}

// retire forgets the oldest terminal records beyond retainJobs. A
// streamed job that succeeded and is not yet Released is skipped: the
// heartbeat purge arm frees the outputs of any job it cannot find, and
// the client has not read these. Callers hold jt.mu.
func (jt *JobTracker) retire() {
	for i := 0; i < len(jt.finished) && len(jt.finished) > retainJobs; {
		rec := jt.jobs[jt.finished[i]]
		if rec.streamOut && !rec.released && rec.failed == "" {
			i++
			continue
		}
		delete(jt.jobs, rec.id)
		jt.finished = slices.Delete(jt.finished, i, i+1)
	}
}

// promote moves tenant's queued submissions to its active list, oldest
// first, while quota headroom lasts. Callers hold jt.mu.
func (jt *JobTracker) promote(tenant string) {
	ts := jt.tenants[tenant]
	if ts == nil {
		return
	}
	for len(ts.queue) > 0 {
		if ts.quota.MaxJobs > 0 && len(ts.jobs) >= ts.quota.MaxJobs {
			return
		}
		if ts.quota.SpillBytes > 0 && jt.tenantHeldBytes(tenant) >= ts.quota.SpillBytes {
			return
		}
		id := ts.queue[0]
		ts.queue = ts.queue[1:]
		rec := jt.jobs[id]
		if rec == nil || rec.done {
			continue
		}
		rec.queued = false
		ts.jobs = append(ts.jobs, id)
	}
}

// promoteAll runs promote for every tenant with a non-empty queue —
// the heartbeat-time check that freed spill budget admits waiting
// jobs. Callers hold jt.mu.
func (jt *JobTracker) promoteAll() {
	for name, ts := range jt.tenants {
		if len(ts.queue) > 0 {
			jt.promote(name)
		}
	}
}

// Addr returns the JobTracker's RPC address.
func (jt *JobTracker) Addr() string { return jt.srv.Addr() }

// Close stops the liveness sweep, answers every parked Status call and
// stops the server.
func (jt *JobTracker) Close() error {
	jt.mu.Lock()
	select {
	case <-jt.stop:
	default:
		close(jt.stop)
	}
	jt.mu.Unlock()
	<-jt.done
	err := jt.srv.Close()
	jt.wire.close()
	return err
}

// handleDecommissionTracker starts a tracker's graceful retirement:
// its next heartbeats carry Drain, so it takes no new work, finishes
// what runs, and keeps serving held shuffle state until the jobs using
// it purge. The tracker reports drain completion through its Drained
// channel (in-process) or simply by going silent once empty.
func (jt *JobTracker) handleDecommissionTracker(body []byte) (any, error) {
	var args DecommissionTrackerArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	if err := jt.DecommissionTracker(args.TrackerID); err != nil {
		return nil, err
	}
	return DecommissionTrackerReply{}, nil
}

// DecommissionTracker is the in-process form of the
// DecommissionTracker RPC: marks the tracker draining.
func (jt *JobTracker) DecommissionTracker(id string) error {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	t := jt.trackers[id]
	if t == nil {
		return fmt.Errorf("netmr: unknown tracker %q", id)
	}
	t.draining = true
	return nil
}

// handleListTrackers reports the membership view, sorted by ID.
func (jt *JobTracker) handleListTrackers(body []byte) (any, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	ids := make([]string, 0, len(jt.trackers))
	for id := range jt.trackers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var reply ListTrackersReply
	for _, id := range ids {
		t := jt.trackers[id]
		reply.Trackers = append(reply.Trackers, TrackerInfo{
			ID: t.id, Rack: t.rack, Device: t.device, State: t.state(),
		})
	}
	return reply, nil
}

// Trackers reports the membership view (the in-process form of the
// ListTrackers RPC), sorted by ID.
func (jt *JobTracker) Trackers() []TrackerInfo {
	reply, _ := jt.handleListTrackers(nil)
	return reply.(ListTrackersReply).Trackers
}

// DataPlaneBytes reports how many winning task output bytes heartbeats
// have delivered to the JobTracker (late duplicates and redelivered
// reports excluded). It is metadata-sized for every job: only
// structured partials ride heartbeats, never a sort run or a ciphertext
// block.
func (jt *JobTracker) DataPlaneBytes() int64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.dataBytes
}

func (jt *JobTracker) handleSubmit(body []byte) (any, error) {
	var args SubmitArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	kern, err := lookupKernel(args.Spec.Kernel)
	if err != nil {
		return nil, err
	}
	// The route comes off the kernel table alone. A kernel with the
	// shuffle pair always shuffles its data jobs (NumReducers 0 means 1);
	// a kernel with no Reduce always parks its final-phase outputs.
	spec := args.Spec
	shuffle := kern.Partition != nil && kern.Merge != nil && spec.Input != ""
	streamOut := kern.Reduce == nil
	if !shuffle && kern.Map == nil {
		return nil, fmt.Errorf("netmr: job %q: kernel %q runs over an input file only", spec.Name, spec.Kernel)
	}
	// API-boundary validation: a negative reduce count would otherwise
	// surface as a partition-hash divide-by-zero deep inside a mapper.
	if spec.NumReducers < 0 {
		return nil, fmt.Errorf("netmr: job %q: NumReducers must be >= 0, got %d",
			spec.Name, spec.NumReducers)
	}
	reducers := max(spec.NumReducers, 1)
	// Range partitioning: exactly reducers-1 sorted split keys. A mismatch
	// caught here would otherwise surface as a per-mapper partition-count
	// error after the job already holds scheduler state. A byte-stream
	// shuffle must bring them: its result is the partitions concatenated
	// in order, and hash partitions are not in key order.
	n := len(spec.SplitKeys)
	if (n > 0 || (shuffle && streamOut)) && n != reducers-1 {
		return nil, fmt.Errorf("netmr: job %q: %d split keys for %d reducers (want NumReducers-1)",
			spec.Name, n, reducers)
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(spec.SplitKeys[i-1], spec.SplitKeys[i]) > 0 {
			return nil, fmt.Errorf("netmr: job %q: split keys are not sorted", spec.Name)
		}
	}
	mapper := spec.Mapper
	if mapper == "" {
		mapper = MapperCell
	}
	if mapper != MapperCell && mapper != MapperJava {
		return nil, fmt.Errorf("netmr: job %q: unknown mapper variant %q (%s|%s)",
			spec.Name, spec.Mapper, MapperCell, MapperJava)
	}
	tasks, err := jt.expand(spec)
	if err != nil {
		return nil, err
	}
	opts := sched.Options{Speculative: jt.Speculative, MaxAttempts: jt.MaxAttempts}
	// Map tasks prefer accelerated trackers when the job offloads;
	// reduce tasks are host merges either way. The affinity steers the
	// grant order only — mismatched trackers still take the work before
	// idling.
	mapOpts := opts
	mapOpts.Affinity = DeviceHost
	if mapper == MapperCell {
		mapOpts.Affinity = DeviceCell
	}
	redOpts := opts
	redOpts.Affinity = DeviceHost
	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	// Admission control: a Submit that would push the tenant past its
	// concurrent-job or spill-budget quota queues behind the running
	// jobs when the tenant opted into a wait line (Quota.MaxQueued > 0)
	// with room left, and is otherwise rejected before any state is
	// allocated, with an error wrapping ErrQuotaExceeded.
	ts := jt.tenant(tenant)
	queued := false
	overJobs := ts.quota.MaxJobs > 0 && len(ts.jobs) >= ts.quota.MaxJobs
	held := jt.tenantHeldBytes(tenant)
	overSpill := ts.quota.SpillBytes > 0 && held >= ts.quota.SpillBytes
	if overJobs || overSpill {
		if ts.quota.MaxQueued > 0 && len(ts.queue) < ts.quota.MaxQueued {
			queued = true
		} else if overJobs {
			metrics.QuotaRejections.Add(1)
			return nil, fmt.Errorf("%w: tenant %q already runs %d of %d jobs",
				ErrQuotaExceeded, tenant, len(ts.jobs), ts.quota.MaxJobs)
		} else {
			metrics.QuotaRejections.Add(1)
			return nil, fmt.Errorf("%w: tenant %q holds %d of %d spill-budget bytes",
				ErrQuotaExceeded, tenant, held, ts.quota.SpillBytes)
		}
	}
	mapBoard, err := sched.NewBoard(len(tasks), jt.TaskLease, mapOpts)
	if err != nil {
		return nil, err
	}
	id := jt.nextJob
	jt.nextJob++
	rec := &jobRecord{
		id:        id,
		tenant:    tenant,
		spec:      spec,
		kern:      kern,
		shuffle:   shuffle,
		streamOut: streamOut,
		maps:      make([]Task, 0, len(tasks)),
		mapBoard:  mapBoard,
		terminal:  make(chan struct{}),
	}
	for _, t := range tasks {
		t.JobID = id
		t.Mapper = mapper
		if shuffle {
			t.NumParts = reducers
			t.SplitKeys = spec.SplitKeys
		}
		rec.maps = append(rec.maps, t)
	}
	final := len(tasks) // tasks in the job's last phase
	if shuffle {
		final = reducers
		rec.redBoard, err = sched.NewBoard(reducers, jt.TaskLease, redOpts)
		if err != nil {
			return nil, err
		}
		rec.mapLoc = make([]string, len(tasks))
		rec.mapPartBytes = make([][]int64, len(tasks))
		rec.fetchFails = make(map[string]int)
		for p := 0; p < reducers; p++ {
			rec.reduces = append(rec.reduces, Task{
				JobID:  id,
				TaskID: p,
				Kernel: spec.Kernel,
				Args:   spec.Args,
				Reduce: true,
				Mapper: mapper,
			})
		}
	}
	if streamOut {
		rec.outLoc = make([]string, final)
	} else {
		rec.partials = make([][]byte, final)
	}
	jt.jobs[id] = rec
	if queued {
		rec.queued = true
		ts.queue = append(ts.queue, id)
	} else {
		ts.jobs = append(ts.jobs, id)
	}
	return SubmitReply{JobID: id}, nil
}

// expand turns a job spec into map tasks: one per input block for data
// jobs, NumTasks equal shares for compute jobs.
func (jt *JobTracker) expand(spec JobSpec) ([]Task, error) {
	if spec.Input != "" {
		nnc, err := jt.wire.get(jt.nnAddr)
		if err != nil {
			return nil, err
		}
		var lookup LookupReply
		if err := nnc.Call("Lookup", LookupArgs{File: spec.Input}, &lookup); err != nil {
			return nil, err
		}
		var tasks []Task
		for i, blk := range lookup.Blocks {
			tasks = append(tasks, Task{
				TaskID: i,
				Kernel: spec.Kernel,
				Args:   spec.Args,
				Block:  blk,
			})
		}
		if len(tasks) == 0 {
			return nil, fmt.Errorf("netmr: input %q has no blocks", spec.Input)
		}
		return tasks, nil
	}
	if spec.Samples <= 0 {
		return nil, fmt.Errorf("netmr: job %q has neither input nor samples", spec.Name)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 2009
	}
	// The canonical decomposition (kernels.SplitSamples) is shared
	// with the engine layer so Pi results agree across backends.
	var tasks []Task
	for i, split := range kernels.SplitSamples(spec.Samples, spec.NumTasks, seed) {
		tasks = append(tasks, Task{
			TaskID:  i,
			Kernel:  spec.Kernel,
			Args:    spec.Args,
			Samples: split.Samples,
			Seed:    split.Seed,
		})
	}
	return tasks, nil
}

func (jt *JobTracker) handleHeartbeat(body []byte) (any, error) {
	var args HeartbeatArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	device := args.Device
	if device == "" {
		device = DeviceHost
	}
	// Membership: the first heartbeat registers the tracker, every one
	// refreshes its liveness — a tracker declared dead rejoins cleanly
	// here (same ID, fresh lease history).
	t := jt.trackers[args.TrackerID]
	if t == nil {
		t = &trackerState{id: args.TrackerID}
		jt.trackers[args.TrackerID] = t
	}
	t.rack = args.Rack
	t.device = device
	t.localDN = args.LocalDataNode
	if args.ShuffleAddr != "" {
		t.shuffleAddr = args.ShuffleAddr
	}
	t.lastSeen = time.Now()
	t.dead = false
	// Refresh the tracker's resident-bytes report; per-tenant sums of
	// these feed SpillBytes quota checks at Submit, so freed bytes may
	// promote queued jobs.
	if len(args.HeldBytes) > 0 {
		jt.held[args.TrackerID] = args.HeldBytes
	} else {
		delete(jt.held, args.TrackerID)
	}
	jt.promoteAll()
	// Record completions and failures. The boards keep the first
	// finished attempt of each task and discard late duplicates
	// (speculative or re-issued after a lease expiry); reported
	// failures free the task for immediate re-issue instead of
	// waiting out the lease.
	for _, res := range args.Completed {
		rec, ok := jt.jobs[res.JobID]
		if !ok || rec.done || rec.finalizing {
			continue
		}
		jt.recordResult(rec, args.TrackerID, res)
	}
	// Kick off finalization for jobs whose last phase just completed.
	// The kernel's Reduce runs outside jt.mu (it may be arbitrarily
	// expensive), and its error becomes the job's terminal error in
	// StatusReply instead of leaking to an arbitrary heartbeating
	// tracker. Streamed-output jobs skip the fold entirely: their
	// result is the set of stored pieces, already in place.
	for _, rec := range jt.jobs {
		if rec.done || rec.finalizing || rec.failed != "" {
			continue
		}
		if rec.finalPhaseDone() {
			if rec.streamOut {
				jt.terminate(rec)
				continue
			}
			rec.finalizing = true
			go jt.finalize(rec, rec.partials)
		}
	}
	// Hand out work slot by slot under weighted deficit round-robin
	// across tenants. Each free slot picks the eligible tenant with the
	// largest fair-share deficit (credit accrues in proportion to
	// configured weight), then serves that tenant's oldest job with
	// work, preferring boards whose device affinity matches this
	// tracker — an accelerated job's map tasks land on accelerated
	// trackers while matching work remains, but a mismatched tracker
	// still takes work before idling (host trackers fall back to
	// accelerated tasks via the bit-identical host kernel). Within a
	// board, data-local map tasks go first (a replica on the tracker's
	// co-located DataNode — the paper's "tries to minimize the number
	// of remote block accesses"); reduce tasks join the pool once every
	// map partition is in place. A tenant with no grantable work drops
	// out of the round and resets its deficit (the DRR empty-queue
	// rule), so credit never accumulates while idle.
	//
	// Only when every tenant's pending work is exhausted do the
	// remaining slots fill with speculative duplicates of the
	// longest-running in-flight tasks, again arbitrated by deficit —
	// speculation is what idle capacity does, never what starves
	// another tenant's real work.
	var reply HeartbeatReply
	if t.draining {
		// A draining tracker gets no new work — only the drain order,
		// its purge list, and the courtesy of its reports being
		// recorded above.
		reply.Drain = true
		for _, id := range args.HeldJobs {
			rec, ok := jt.jobs[id]
			if !ok || (rec.done && (!rec.streamOut || rec.released || rec.failed != "")) {
				reply.PurgeJobs = append(reply.PurgeJobs, id)
			}
		}
		return reply, nil
	}
	now := time.Now()
	eligible := jt.eligibleTenants(args.TrackerID, now)
	for len(reply.Tasks) < args.FreeSlots && len(eligible) > 0 {
		name := jt.fair.Pick(eligible)
		task, ok := jt.grantPending(name, device, args, now)
		if !ok {
			jt.fair.Idle(name)
			eligible = slices.DeleteFunc(eligible, func(t string) bool { return t == name })
			continue
		}
		jt.fair.Charge(name)
		jt.tenants[name].granted++
		reply.Tasks = append(reply.Tasks, task)
	}
	eligible = jt.eligibleTenants(args.TrackerID, now)
	for len(reply.Tasks) < args.FreeSlots && len(eligible) > 0 {
		name := jt.fair.Pick(eligible)
		task, ok := jt.grantSpeculative(name, args, now)
		if !ok {
			// No Idle here: a tenant may have pending work gated on
			// map completion; speculation must not zero its credit.
			eligible = slices.DeleteFunc(eligible, func(t string) bool { return t == name })
			continue
		}
		jt.fair.Charge(name)
		jt.tenants[name].granted++
		reply.Tasks = append(reply.Tasks, task)
	}
	// Shuffle-store GC: name the held jobs that finished, so trackers
	// free their partitions. A streamed-output job's stores also hold
	// its results — those survive until the client Releases the job
	// (or the job fails terminally).
	for _, id := range args.HeldJobs {
		rec, ok := jt.jobs[id]
		if !ok || (rec.done && (!rec.streamOut || rec.released || rec.failed != "")) {
			reply.PurgeJobs = append(reply.PurgeJobs, id)
		}
	}
	return reply, nil
}

// eligibleTenants lists tenants the fair-share pass may serve on this
// heartbeat, sorted for determinism: those with active jobs, excluding
// any at its MaxTrackers cap unless trackerID already runs its work
// (granting there adds no tracker to the tenant's footprint). Callers
// hold jt.mu.
func (jt *JobTracker) eligibleTenants(trackerID string, now time.Time) []string {
	var out []string
	for name, ts := range jt.tenants {
		if len(ts.jobs) == 0 {
			continue
		}
		if ts.quota.MaxTrackers > 0 {
			live := jt.tenantLiveTrackers(ts, now)
			if _, mine := live[trackerID]; len(live) >= ts.quota.MaxTrackers && !mine {
				continue
			}
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tenantLiveTrackers is the set of trackers holding live (unexpired)
// attempts of ts's jobs, with attempt counts. Callers hold jt.mu.
func (jt *JobTracker) tenantLiveTrackers(ts *tenantState, now time.Time) map[string]int {
	out := make(map[string]int)
	for _, id := range ts.jobs {
		rec := jt.jobs[id]
		if rec == nil {
			continue
		}
		for w, n := range rec.mapBoard.LiveWorkers(now) {
			out[w] += n
		}
		if rec.redBoard != nil {
			for w, n := range rec.redBoard.LiveWorkers(now) {
				out[w] += n
			}
		}
	}
	return out
}

// grantPending hands out one pending task from tenant's oldest job
// with work: first from boards whose affinity matches this tracker's
// device, then from any board. Callers hold jt.mu.
func (jt *JobTracker) grantPending(tenant, device string, args HeartbeatArgs, now time.Time) (Task, bool) {
	ts := jt.tenants[tenant]
	for _, affinityOnly := range []bool{true, false} {
		for _, id := range ts.jobs {
			rec := jt.jobs[id]
			if rec == nil || rec.done || rec.finalizing {
				continue
			}
			if t, ok := jt.grantFromJob(rec, device, args, now, affinityOnly); ok {
				return t, true
			}
		}
	}
	return Task{}, false
}

// grantFromJob tries to assign one of rec's pending tasks to the
// heartbeating tracker, honouring data locality on the map board:
// node-local tasks (a replica on the tracker's co-located DataNode)
// first, then rack-local ones (a replica on the tracker's rack), then
// remote — the paper's "minimize the number of remote block accesses"
// extended one topology tier. With affinityOnly set only boards
// matching the tracker's device are considered. Callers hold jt.mu.
func (jt *JobTracker) grantFromJob(rec *jobRecord, device string, args HeartbeatArgs, now time.Time, affinityOnly bool) (Task, bool) {
	if !affinityOnly || rec.mapBoard.Affinity() == device {
		var locality func(int) sched.Locality
		if args.LocalDataNode != "" || args.Rack != "" {
			locality = func(i int) sched.Locality {
				blk := rec.maps[i].Block
				if len(blk.Replicas) == 0 {
					return sched.LocalityRemote // compute task: indifferent
				}
				if args.LocalDataNode != "" && slices.Contains(blk.Replicas, args.LocalDataNode) {
					return sched.LocalityNode
				}
				if args.Rack != "" && len(blk.Racks) > 0 && blk.OnRack(args.Rack) {
					return sched.LocalityRack
				}
				return sched.LocalityRemote
			}
		}
		if is := rec.mapBoard.Assign(args.TrackerID, 1, now, locality); len(is) == 1 {
			return rec.maps[is[0]], true
		}
	}
	if rec.shuffle && rec.mapDone == len(rec.maps) &&
		(!affinityOnly || rec.redBoard.Affinity() == device) {
		// Reduce locality: prefer the partition whose bytes mostly live
		// in this tracker's own shuffle store — the heaviest fetch
		// stream becomes a local read instead of a network pull.
		var locality func(int) sched.Locality
		if args.ShuffleAddr != "" && rec.redHome != nil {
			locality = func(p int) sched.Locality {
				if rec.redHome[p] == args.ShuffleAddr {
					return sched.LocalityNode
				}
				return sched.LocalityRemote
			}
		}
		if ps := rec.redBoard.Assign(args.TrackerID, 1, now, locality); len(ps) == 1 {
			return rec.reduceTask(ps[0]), true
		}
	}
	return Task{}, false
}

// grantSpeculative hands out one speculative duplicate of tenant's
// longest-running in-flight task, oldest job first. Callers hold
// jt.mu.
func (jt *JobTracker) grantSpeculative(tenant string, args HeartbeatArgs, now time.Time) (Task, bool) {
	ts := jt.tenants[tenant]
	for _, id := range ts.jobs {
		rec := jt.jobs[id]
		if rec == nil || rec.done || rec.finalizing {
			continue
		}
		if is := rec.mapBoard.Speculate(args.TrackerID, 1, now); len(is) == 1 {
			return rec.maps[is[0]], true
		}
		if rec.shuffle && rec.mapDone == len(rec.maps) {
			if ps := rec.redBoard.Speculate(args.TrackerID, 1, now); len(ps) == 1 {
				return rec.reduceTask(ps[0]), true
			}
		}
	}
	return Task{}, false
}

// handleRelease marks a streamed-output job's results consumed:
// trackers free the stored pieces on their next heartbeat.
func (jt *JobTracker) handleRelease(body []byte) (any, error) {
	var args ReleaseArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rec, ok := jt.jobs[args.JobID]
	if !ok {
		return nil, fmt.Errorf("netmr: unknown job %d", args.JobID)
	}
	rec.released = true
	return ReleaseReply{}, nil
}

// handleKill terminates a job mid-flight: the record turns terminal
// with a killed error, in-flight attempts become late duplicates the
// boards discard, and the next heartbeats purge the job's shuffle
// stores, spill files and streamed outputs. Killing a finished job
// just releases its streamed outputs. A non-empty KillArgs.Tenant must
// match the job's tenant — one tenant cannot kill another's job.
func (jt *JobTracker) handleKill(body []byte) (any, error) {
	var args KillArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rec, ok := jt.jobs[args.JobID]
	if !ok {
		return nil, fmt.Errorf("netmr: unknown job %d", args.JobID)
	}
	if args.Tenant != "" && rec.tenant != args.Tenant {
		return nil, fmt.Errorf("netmr: job %d belongs to tenant %q", args.JobID, rec.tenant)
	}
	if rec.done {
		rec.released = true
		return KillReply{AlreadyDone: true}, nil
	}
	rec.failed = fmt.Sprintf("netmr: job %d killed", rec.id)
	rec.released = true
	jt.terminate(rec)
	metrics.JobsKilled.Add(1)
	return KillReply{}, nil
}

// handleListJobs lists jobs the tracker knows about — every tenant's,
// or one tenant's when the filter is set — in submission order.
func (jt *JobTracker) handleListJobs(body []byte) (any, error) {
	var args ListJobsArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	var reply ListJobsReply
	for id := int64(0); id < jt.nextJob; id++ {
		rec, ok := jt.jobs[id]
		if !ok || (args.Tenant != "" && rec.tenant != args.Tenant) {
			continue
		}
		reply.Jobs = append(reply.Jobs, JobInfo{
			ID:        rec.id,
			Tenant:    rec.tenant,
			Name:      rec.spec.Name,
			Kernel:    rec.spec.Kernel,
			Done:      rec.done,
			Err:       rec.failed,
			Completed: rec.mapDone + rec.redDone,
			Total:     len(rec.maps) + len(rec.reduces),
		})
	}
	return reply, nil
}

// recordResult folds one task report into the job. Callers hold jt.mu.
func (jt *JobTracker) recordResult(rec *jobRecord, trackerID string, res TaskResult) {
	if res.Reduce {
		if !rec.shuffle || res.TaskID < 0 || res.TaskID >= len(rec.reduces) {
			return
		}
		if res.Err != "" {
			jt.failAttempt(rec, rec.redBoard, trackerID, res, "reduce")
			return
		}
		if rec.redBoard.Complete(res.TaskID, trackerID) {
			jt.addDataBytes(int64(len(res.Output)))
			rec.keepFinal(res)
			rec.redDone++
			// This reduce fetched from every shuffle store, so any
			// accumulated transient-blame against them is stale.
			clear(rec.fetchFails)
		}
		return
	}
	if res.TaskID < 0 || res.TaskID >= len(rec.maps) {
		return
	}
	if res.Err != "" {
		jt.failAttempt(rec, rec.mapBoard, trackerID, res, "map")
		return
	}
	if rec.mapBoard.Complete(res.TaskID, trackerID) {
		jt.addDataBytes(int64(len(res.Output)))
		if rec.shuffle {
			rec.mapLoc[res.TaskID] = res.ShuffleAddr
			rec.mapPartBytes[res.TaskID] = res.PartBytes
		} else {
			rec.keepFinal(res)
		}
		rec.mapDone++
		if rec.shuffle && rec.mapDone == len(rec.maps) {
			rec.planReduces()
		}
	}
}

// planReduces installs the reduce-phase plan once every map partition
// is in place: the reduce board's scan order becomes heaviest-partition
// first (LPT — a skewed range starts immediately instead of
// serializing the tail), and redHome records, per partition, the
// shuffle address holding the most of its bytes — the locality hint
// grantFromJob serves reducers by, so the heaviest fetch stream is a
// local store read. A size report of the wrong length (it arrives off
// the wire) leaves the board in index order instead of being indexed.
// Callers hold jt.mu.
func (rec *jobRecord) planReduces() {
	r := len(rec.reduces)
	totals := make([]int64, r)
	homeBytes := make([]map[string]int64, r)
	for p := range homeBytes {
		homeBytes[p] = make(map[string]int64)
	}
	for m, parts := range rec.mapPartBytes {
		if len(parts) != r {
			return // malformed size report: keep index order, no hints
		}
		for p, n := range parts {
			totals[p] += n
			homeBytes[p][rec.mapLoc[m]] += n
		}
	}
	order := make([]int, r)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })
	rec.redBoard.SetOrder(order)
	rec.redHome = make([]string, r)
	for p := range rec.redHome {
		best, bestN := "", int64(-1)
		addrs := make([]string, 0, len(homeBytes[p]))
		for a := range homeBytes[p] {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs) // deterministic tie-break
		for _, a := range addrs {
			if homeBytes[p][a] > bestN {
				best, bestN = a, homeBytes[p][a]
			}
		}
		rec.redHome[p] = best
	}
}

// unplanReduces drops a stale reduce plan after a map output is lost:
// the reopened maps will land somewhere else, so sizes and homes are
// recomputed when coverage is complete again. Callers hold jt.mu.
func (rec *jobRecord) unplanReduces() {
	if rec.redBoard != nil {
		rec.redBoard.SetOrder(nil)
	}
	rec.redHome = nil
}

// addDataBytes meters winning task output bytes that crossed the
// heartbeat channel — the JobTracker's local counter plus the shared
// process-wide meter. Callers hold jt.mu.
func (jt *JobTracker) addDataBytes(n int64) {
	jt.dataBytes += n
	metrics.DataPlaneBytes.Add(n)
}

// fetchFailThreshold is how many reduce-fetch failure reports an
// address accumulates before its map outputs are declared lost — one
// transient error re-issues only the reduce attempt, repeated ones
// trigger the shuffle re-run (Hadoop's repeated-notification rule).
const fetchFailThreshold = 2

// failAttempt handles a reported task failure, immediately freeing the
// task for re-issue. A reduce fetch failure (BadAddr set) is an
// infrastructure failure: it never spends the task's failure budget,
// and once fetchFailThreshold distinct reports blame one shuffle
// store, that store's map tasks reopen for the shuffle re-run. A
// genuine task error spends the budget, and exhausting it turns into
// the job's terminal error. Redelivered reports (heartbeats retry
// after lost replies) are ignored whole. Callers hold jt.mu.
func (jt *JobTracker) failAttempt(rec *jobRecord, board *sched.Board, trackerID string, res TaskResult, phase string) {
	if res.BadAddr != "" && rec.shuffle {
		if !board.Release(res.TaskID, trackerID) {
			return // duplicate or stale report: the attempt is already resolved
		}
		rec.fetchFails[res.BadAddr]++
		if rec.fetchFails[res.BadAddr] >= fetchFailThreshold {
			delete(rec.fetchFails, res.BadAddr)
			for i, loc := range rec.mapLoc {
				if loc == res.BadAddr {
					rec.mapBoard.Reopen(i)
					rec.mapLoc[i] = ""
					rec.mapPartBytes[i] = nil
					rec.mapDone--
					rec.unplanReduces()
				}
			}
		}
		return
	}
	dropped, exhausted := board.Fail(res.TaskID, trackerID)
	if !dropped {
		return // duplicate or stale report: the attempt is already resolved
	}
	if exhausted {
		rec.failed = fmt.Sprintf("netmr: %s task %d of job %d failed after max attempts: %s",
			phase, res.TaskID, rec.id, res.Err)
		jt.terminate(rec)
	}
}

// finalize folds the job's last-phase outputs into its result with the
// kernel's Reduce, outside jt.mu.
func (jt *JobTracker) finalize(rec *jobRecord, outputs [][]byte) {
	result, err := rec.kern.Reduce(outputs)
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if rec.done {
		return // killed while finalizing: keep the terminal state
	}
	if err != nil {
		rec.failed = fmt.Sprintf("netmr: reduce job %d: %v", rec.id, err)
	} else {
		rec.result = result
	}
	jt.terminate(rec)
}

// handleStatus answers with the job's snapshot — at once for a zero
// StatusArgs.Hold, otherwise after parking (jt.mu released) until the
// job's terminal edge, the capped hold expiring or Close, whichever
// comes first. The record pointer outlives the park even if the job is
// retired meanwhile, so a parked caller always gets its result.
func (jt *JobTracker) handleStatus(body []byte) (any, error) {
	var args StatusArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rec, ok := jt.jobs[args.JobID]
	if !ok {
		return nil, fmt.Errorf("netmr: unknown job %d", args.JobID)
	}
	if args.Hold > 0 && !rec.done {
		jt.mu.Unlock()
		hold := time.NewTimer(min(args.Hold, maxStatusHold))
		select {
		case <-rec.terminal:
		case <-hold.C:
		case <-jt.stop:
		}
		hold.Stop()
		jt.mu.Lock()
	}
	attempts := rec.mapBoard.Attempts()
	counts := rec.mapBoard.Counts()
	if rec.redBoard != nil {
		attempts += rec.redBoard.Attempts()
		for w, n := range rec.redBoard.Counts() {
			counts[w] += n
		}
	}
	devices := make(map[string]string, len(jt.trackers))
	for id, t := range jt.trackers {
		devices[id] = t.device
	}
	// A finished streamed-output job's result is its list of stored
	// pieces, in task order.
	var outputs []MapOutputRef
	if rec.streamOut && rec.done && rec.failed == "" {
		outputs = make([]MapOutputRef, len(rec.outLoc))
		for i, addr := range rec.outLoc {
			if rec.shuffle {
				outputs[i] = MapOutputRef{MapTask: -1, Part: i, Addr: addr}
			} else {
				outputs[i] = MapOutputRef{MapTask: i, Part: -1, Addr: addr}
			}
		}
	}
	return StatusReply{
		Done:      rec.done,
		Completed: rec.mapDone + rec.redDone,
		Total:     len(rec.maps) + len(rec.reduces),
		Result:    rec.result,
		Err:       rec.failed,
		Attempts:  attempts,
		Counts:    counts,
		Devices:   devices,
		Outputs:   outputs,
	}, nil
}
