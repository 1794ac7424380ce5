package netmr

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/metrics"
	"hetmr/internal/rpcnet"
	"hetmr/internal/sched"
)

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
// forgotten — except a streamed job the client has not yet released
// (Kill on a finished job), whose stored outputs the record still
// guards. Status and Kill on a forgotten ID answer "unknown job",
// exactly as for an ID that was never issued.
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
	adm       *admission
	trackers  *roster[trackerState]
	dataBytes int64 // task output bytes carried by heartbeats

	sweeper *background
}

// trackerState is the JobTracker's own columns of a TaskTracker's
// membership row.
type trackerState struct {
	device      string
	shuffleAddr string
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
		wire:      newConnCache(),
		TaskLease: 10 * time.Second,
		jobs:      make(map[int64]*jobRecord),
		adm:       newAdmission(),
		trackers:  newRoster[trackerState](),
	}
	jt.sweeper = every(sweepInterval, jt.sweep)
	handle(srv, "Submit", jt.handleSubmit)
	handle(srv, "Heartbeat", func(args HeartbeatArgs) (HeartbeatReply, error) {
		return jt.heartbeat(args, time.Now()), nil
	})
	handle(srv, "Status", jt.handleStatus)
	handle(srv, "Kill", jt.handleKill)
	handle(srv, "ListJobs", jt.handleListJobs)
	handle(srv, "DecommissionTracker", func(args DecommissionTrackerArgs) (DecommissionTrackerReply, error) {
		return DecommissionTrackerReply{}, jt.DecommissionTracker(args.TrackerID)
	})
	handle(srv, "ListTrackers", func(ListTrackersArgs) (ListTrackersReply, error) {
		return ListTrackersReply{Trackers: jt.Trackers()}, nil
	})
	return jt, nil
}

// sweep is the tracker-liveness tick: when DeadAfter is set, trackers
// that miss it are declared dead and the outputs their shuffle stores
// held are reopened immediately — the lost-work recovery that otherwise
// waits for a reducer's repeated fetch failures runs from the
// authoritative membership view. Pure in-memory state: no RPC under (or
// outside) the lock.
func (jt *JobTracker) sweep(now time.Time) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for _, t := range jt.trackers.expire(now, jt.DeadAfter) {
		for _, rec := range jt.jobs {
			if !rec.done && !rec.finalizing {
				rec.reopenLost(t.info.shuffleAddr)
			}
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
	jt.adm.setQuota(tenant, q, jt.jobs)
}

// TenantStats reports every known tenant's scheduling and accounting
// state — the observability hook the fair-share and quota tests (and a
// service operator) read.
func (jt *JobTracker) TenantStats() map[string]TenantStat {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.adm.stats(jt.jobs)
}

// retainJobs is how many terminal job records the JobTracker keeps for
// late Status calls before forgetting the oldest.
const retainJobs = 64

// terminate marks rec terminal — waking every Status call parked on it
// and dropping the task outputs only the final fold needed — and
// deregisters it from admission. rec.failed / rec.result must already
// reflect the outcome. Callers hold jt.mu.
func (jt *JobTracker) terminate(rec *jobRecord) {
	rec.done = true
	rec.partials = nil
	close(rec.terminal)
	jt.finished = append(jt.finished, rec.id)
	jt.retire()
	jt.adm.finish(rec.tenant, rec.id, jt.jobs)
}

// retire forgets the oldest terminal records beyond retainJobs, except
// one that still guards unread outputs: the heartbeat purge arm frees
// the outputs of any job it cannot find. Callers hold jt.mu.
func (jt *JobTracker) retire() {
	for i := 0; i < len(jt.finished) && len(jt.finished) > retainJobs; {
		rec := jt.jobs[jt.finished[i]]
		if rec.guardsOutputs() {
			i++
			continue
		}
		delete(jt.jobs, rec.id)
		jt.finished = slices.Delete(jt.finished, i, i+1)
	}
}

// Addr returns the JobTracker's RPC address.
func (jt *JobTracker) Addr() string { return jt.srv.Addr() }

// Close stops the liveness sweep, answers every parked Status call and
// stops the server.
func (jt *JobTracker) Close() error {
	jt.sweeper.halt()
	err := jt.srv.Close()
	jt.wire.close()
	return err
}

// DecommissionTracker starts a tracker's graceful retirement: its next
// heartbeats carry Drain, so it takes no new work, finishes what runs,
// and keeps serving held shuffle state until the jobs using it purge.
// The tracker reports drain completion through its Drained channel
// (in-process) or simply by going silent once empty.
func (jt *JobTracker) DecommissionTracker(id string) error {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.trackers.drain(id) == nil {
		return fmt.Errorf("netmr: unknown tracker %q", id)
	}
	return nil
}

// Trackers reports the membership view, sorted by ID.
func (jt *JobTracker) Trackers() []TrackerInfo {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	var out []TrackerInfo
	for _, t := range jt.trackers.list() {
		out = append(out, TrackerInfo{ID: t.id, Device: t.info.device, State: t.state()})
	}
	slices.SortFunc(out, func(a, b TrackerInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
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

// handleSubmit validates the spec, expands it into map tasks (a
// NameNode lookup, outside jt.mu) and submits the job.
func (jt *JobTracker) handleSubmit(args SubmitArgs) (SubmitReply, error) {
	rec, err := newJob(args.Spec)
	if err != nil {
		return SubmitReply{}, err
	}
	tasks, err := jt.expand(rec.spec)
	if err != nil {
		return SubmitReply{}, err
	}
	id, err := jt.submit(rec, tasks)
	return SubmitReply{JobID: id}, err
}

// submit issues rec an ID, opens its phases over tasks and passes it
// through admission control: a job that would push its tenant past a
// quota queues or is rejected (ErrQuotaExceeded), leaving no state
// behind.
func (jt *JobTracker) submit(rec *jobRecord, tasks []Task) (int64, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	opts := sched.Options{Speculative: jt.Speculative, MaxAttempts: jt.MaxAttempts}
	if err := rec.open(jt.nextJob, tasks, jt.TaskLease, opts); err != nil {
		return 0, err
	}
	if err := jt.adm.admit(rec.tenant, rec.id, jt.jobs); err != nil {
		return 0, err
	}
	jt.jobs[rec.id] = rec
	jt.nextJob++
	return rec.id, nil
}

// expand turns a job spec into map tasks: one per input block for data
// jobs, NumTasks equal shares for compute jobs.
func (jt *JobTracker) expand(spec JobSpec) ([]Task, error) {
	if spec.Input != "" {
		var lookup LookupReply
		if err := jt.wire.call(jt.nnAddr, "Lookup", LookupArgs{File: spec.Input}, &lookup); err != nil {
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

// heartbeat folds one tracker report into the membership view, the
// admission accounts and the jobs, and answers with the tracker's next
// tasks and the held jobs it may purge.
func (jt *JobTracker) heartbeat(args HeartbeatArgs, now time.Time) HeartbeatReply {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	t := jt.trackers.beat(args.TrackerID, now)
	t.info.device = args.Device
	if t.info.device == "" {
		t.info.device = DeviceHost
	}
	if args.ShuffleAddr != "" {
		t.info.shuffleAddr = args.ShuffleAddr
	}
	jt.adm.report(args.TrackerID, args.HeldBytes, jt.jobs)
	// Record completions and failures; a reported failure frees the
	// task for immediate re-issue instead of waiting out the lease, and
	// one that exhausts the task's attempt budget ends the job. A report
	// that completes the job's last phase kicks off finalization: the
	// kernel's Reduce runs outside jt.mu (it may be arbitrarily
	// expensive), and its error becomes the job's terminal error in
	// StatusReply instead of leaking to an arbitrary heartbeating
	// tracker. Streamed-output jobs skip the fold entirely: their result
	// is the set of stored pieces, already in place.
	for _, res := range args.Completed {
		rec, ok := jt.jobs[res.JobID]
		if !ok || rec.done || rec.finalizing {
			continue
		}
		carried, fatal := rec.record(args.TrackerID, res)
		jt.dataBytes += carried
		metrics.DataPlaneBytes.Add(carried)
		switch {
		case fatal != "":
			rec.failed = fatal
			jt.terminate(rec)
		case !rec.final().complete():
		case rec.streamOut:
			jt.terminate(rec)
		default:
			rec.finalizing = true
			go jt.finalize(rec, rec.partials)
		}
	}
	// A draining tracker gets no new work — only the drain order, its
	// purge list, and the courtesy of its reports being recorded above.
	reply := HeartbeatReply{Drain: t.draining}
	if !t.draining {
		reply.Tasks = grantTasks(jt.adm, jt.jobs, t.info.device, args, now)
	}
	// Shuffle-store GC: name the held jobs that finished (or that the
	// JobTracker no longer knows), so trackers free their partitions. A
	// streamed-output job's stores also hold its results — those survive
	// until the client releases the job (or the job fails terminally).
	for _, id := range args.HeldJobs {
		if rec, ok := jt.jobs[id]; !ok || (rec.done && !rec.guardsOutputs()) {
			reply.PurgeJobs = append(reply.PurgeJobs, id)
		}
	}
	return reply
}

// handleKill terminates a job mid-flight: the record turns terminal with a
// killed error, in-flight attempts become late duplicates the boards
// discard, and the next heartbeats purge the job's shuffle stores,
// spill files and streamed outputs. Killing a finished job just
// releases its streamed outputs. A non-empty KillArgs.Tenant must match
// the job's tenant — one tenant cannot kill another's job.
func (jt *JobTracker) handleKill(args KillArgs) (KillReply, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rec, ok := jt.jobs[args.JobID]
	if !ok {
		return KillReply{}, fmt.Errorf("netmr: unknown job %d", args.JobID)
	}
	if args.Tenant != "" && rec.tenant != args.Tenant {
		return KillReply{}, fmt.Errorf("netmr: job %d belongs to tenant %q", args.JobID, rec.tenant)
	}
	rec.released = true
	if rec.done {
		return KillReply{AlreadyDone: true}, nil
	}
	rec.failed = fmt.Sprintf("netmr: job %d killed", rec.id)
	jt.terminate(rec)
	metrics.JobsKilled.Add(1)
	return KillReply{}, nil
}

// handleListJobs lists the jobs the tracker still holds a record of — every
// tenant's, or one tenant's when the filter is set — in submission (ID)
// order. The cost is the retained records', not every ID ever issued.
func (jt *JobTracker) handleListJobs(args ListJobsArgs) (ListJobsReply, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	var reply ListJobsReply
	for _, rec := range jt.jobs {
		if args.Tenant != "" && rec.tenant != args.Tenant {
			continue
		}
		completed, total := rec.progress()
		reply.Jobs = append(reply.Jobs, JobInfo{
			ID:        rec.id,
			Tenant:    rec.tenant,
			Name:      rec.spec.Name,
			Kernel:    rec.spec.Kernel,
			Done:      rec.done,
			Err:       rec.failed,
			Completed: completed,
			Total:     total,
		})
	}
	slices.SortFunc(reply.Jobs, func(a, b JobInfo) int { return cmp.Compare(a.ID, b.ID) })
	return reply, nil
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
func (jt *JobTracker) handleStatus(args StatusArgs) (StatusReply, error) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	rec, ok := jt.jobs[args.JobID]
	if !ok {
		return StatusReply{}, fmt.Errorf("netmr: unknown job %d", args.JobID)
	}
	if args.Hold > 0 && !rec.done {
		jt.mu.Unlock()
		hold := time.NewTimer(min(args.Hold, maxStatusHold))
		select {
		case <-rec.terminal:
		case <-hold.C:
		case <-jt.sweeper.stop:
		}
		hold.Stop()
		jt.mu.Lock()
	}
	reply := StatusReply{
		Done:    rec.done,
		Result:  rec.result,
		Err:     rec.failed,
		Devices: make(map[string]string, len(jt.trackers.members)),
		Outputs: rec.outputs(),
	}
	reply.Completed, reply.Total = rec.progress()
	for pi := range rec.phases {
		board := rec.phases[pi].board
		reply.Attempts += board.Attempts()
		if reply.Counts == nil {
			reply.Counts = board.Counts()
			continue
		}
		for w, n := range board.Counts() {
			reply.Counts[w] += n
		}
	}
	for id, t := range jt.trackers.members {
		reply.Devices[id] = t.info.device
	}
	return reply, nil
}
