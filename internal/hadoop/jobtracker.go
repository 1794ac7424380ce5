package hadoop

import (
	"fmt"
	"math"
	"time"

	"hetmr/internal/cluster"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sched"
	"hetmr/internal/sim"
)

// TaskAttempt is one attempt at running a task (re-executions after
// tracker failure and speculative duplicates are separate attempts) —
// the launch order a heartbeat reply carries, at most one per heartbeat
// as in Hadoop 0.19; a nil reply grants nothing. Map attempts carry a
// Split; reduce attempts carry ReduceIndex >= 0.
type TaskAttempt struct {
	job         *jobState
	Split       *Split
	ReduceIndex int // -1 for map attempts
	Attempt     int
	Tracker     string
}

// IsReduce reports whether this is a reduce-task attempt.
func (a *TaskAttempt) IsReduce() bool { return a.ReduceIndex >= 0 }

type taskReport struct {
	attempt *TaskAttempt
	stat    TaskStat
}

type msgKind int

const (
	msgHeartbeat msgKind = iota
	msgSubmit
	msgShutdown
)

type jtMsg struct {
	kind            msgKind
	tracker         *TaskTracker
	freeSlots       int
	freeReduceSlots int
	completed       []taskReport
	reply           *sim.Mailbox[*TaskAttempt]
	job             *jobState
}

// jobState is one submitted job at the JobTracker. Which tasks are
// pending, in flight or done, who won each and how many attempts were
// launched is held by the two Boards and nowhere else — the same tables,
// driven the same way, as a netmr job's mapBoard and redBoard.
type jobState struct {
	job    *Job
	handle *JobHandle
	result *JobResult

	maps    *sched.Board
	reduces *sched.Board // nil for a map-only job; grants once maps is Done
	// Per-task launch counts: an attempt's number stays unique even when
	// an earlier attempt died with its node and never reported.
	mapLaunches, reduceLaunches []int
	mapOutputBytes              int64 // shuffle volume the reducers share
}

// mapAttempt numbers the attempt the map Board just granted tracker.
func (js *jobState) mapAttempt(idx int, tracker string) *TaskAttempt {
	js.mapLaunches[idx]++
	return &TaskAttempt{job: js, Split: &js.job.Splits[idx], ReduceIndex: -1,
		Attempt: js.mapLaunches[idx] - 1, Tracker: tracker}
}

// reduceAttempt numbers the attempt the reduce Board just granted tracker.
func (js *jobState) reduceAttempt(idx int, tracker string) *TaskAttempt {
	js.reduceLaunches[idx]++
	return &TaskAttempt{job: js, ReduceIndex: idx,
		Attempt: js.reduceLaunches[idx] - 1, Tracker: tracker}
}

// locality grades the splits for tracker: node-local when it is one of
// the split's preferred hosts ("it tries to minimize the number of
// remote block accesses"), remote otherwise.
func (js *jobState) locality(tracker string) func(int) sched.Locality {
	return func(i int) sched.Locality {
		for _, h := range js.job.Splits[i].PreferredHosts {
			if h == tracker {
				return sched.LocalityNode
			}
		}
		return sched.LocalityRemote
	}
}

// release drops every live attempt tracker holds, making those tasks
// pending again in the Boards' scan order. Silent death does not spend
// the failure budget (Release, not Fail).
func (js *jobState) release(tracker string) {
	for i := range js.job.Splits {
		js.maps.Release(i, tracker)
	}
	for i := 0; i < js.job.Reduces; i++ {
		js.reduces.Release(i, tracker)
	}
}

// boardTime maps the virtual clock onto the time.Time the Boards take;
// any fixed epoch but the zero Time, which reads as "no live attempt".
func boardTime(t sim.Time) time.Time { return time.Unix(0, int64(t)) }

// noLease is the Boards' attempt lease: never expiring, as in sched.Run.
// The model detects loss per tracker (TrackerExpiry), not per attempt.
const noLease = time.Duration(math.MaxInt64)

// JobTracker is the master daemon: it queues jobs, answers heartbeats
// by pulling one attempt from the active job's Boards (locality
// preferred), reports completions to them (serialized housekeeping),
// and detects lost trackers, releasing their attempts for re-execution.
// It models the timing of that loop on the virtual clock; the grant
// logic is sched.Board's, the one the live and net runtimes run.
type JobTracker struct {
	clus  *cluster.Cluster
	cfg   Config
	inbox sim.Mailbox[jtMsg]

	lastHB map[string]sim.Time // per tracker that ever heartbeated
	dead   map[string]bool     // trackers declared lost; they get no more work
	queue  []*jobState
	active *jobState
}

// newJobTracker builds and starts the JobTracker process.
func newJobTracker(eng *sim.Engine, clus *cluster.Cluster, cfg Config) *JobTracker {
	jt := &JobTracker{clus: clus, cfg: cfg, lastHB: map[string]sim.Time{}, dead: map[string]bool{}}
	eng.Spawn("jobtracker", jt.run)
	return jt
}

func (jt *JobTracker) run(p *sim.Proc) {
	for {
		msg := jt.inbox.Recv(p)
		switch msg.kind {
		case msgShutdown:
			return
		case msgSubmit:
			jt.queue = append(jt.queue, msg.job)
			if jt.active == nil {
				jt.activateNext(p)
			}
		case msgHeartbeat:
			jt.handleHeartbeat(p, msg)
		}
	}
}

// activateNext starts the next queued job (job setup: split
// computation, staging).
func (jt *JobTracker) activateNext(p *sim.Proc) {
	if len(jt.queue) == 0 {
		return
	}
	js := jt.queue[0]
	jt.queue = jt.queue[1:]
	p.Sleep(jt.cfg.JobSetup)
	js.result.Started = p.Now()
	jt.active = js
}

func (jt *JobTracker) handleHeartbeat(p *sim.Proc, msg jtMsg) {
	jt.lastHB[msg.tracker.Node.Name] = p.Now()

	// The JobTracker is single-threaded: every heartbeat holds it for
	// the RPC processing cost, and each reported completion adds the
	// serialized bookkeeping ("collecting and sorting the partial
	// results"). These serial sections are the emergent scaling floor.
	p.Sleep(jt.cfg.HeartbeatProcess)
	for _, rep := range msg.completed {
		p.Sleep(jt.cfg.TaskHousekeeping)
		jt.recordCompletion(rep)
	}
	jt.checkExpiredTrackers(p)
	jt.maybeFinishActive(p)

	var attempt *TaskAttempt
	if jt.active != nil && !jt.dead[msg.tracker.Node.Name] {
		attempt = jt.grant(p, msg)
	}
	msg.reply.Send(attempt)
}

// recordCompletion reports one finished attempt to its Board; the
// first finisher of a task wins, a speculative or re-run duplicate
// arriving later is wasted work.
func (jt *JobTracker) recordCompletion(rep taskReport) {
	js, stat := rep.attempt.job, rep.stat
	if rep.attempt.IsReduce() {
		stat.Won = js.reduces.Complete(rep.attempt.ReduceIndex, stat.Tracker)
	} else if stat.Won = js.maps.Complete(rep.attempt.Split.Index, stat.Tracker); stat.Won {
		js.mapOutputBytes += stat.Output
	}
	js.result.Tasks = append(js.result.Tasks, stat)
	js.result.LocalReads += int64(stat.LocalHit)
	js.result.RemoteReads += int64(stat.Remote)
}

// grant pulls at most one attempt from the active job for a heartbeat:
// a pending map (data-local first), else a pending reduce once the map
// phase is complete (Hadoop 0.19 had no slow-start shuffle overlap worth
// modelling at the paper's job shapes), else, with speculation on, a
// duplicate of either phase's longest-running single-attempt task.
func (jt *JobTracker) grant(p *sim.Proc, msg jtMsg) *TaskAttempt {
	js, name, now := jt.active, msg.tracker.Node.Name, boardTime(p.Now())
	canMap := msg.freeSlots > 0
	canReduce := msg.freeReduceSlots > 0 && js.reduces != nil && js.maps.Done()
	if canMap {
		if g := js.maps.Assign(name, 1, now, js.locality(name)); len(g) == 1 {
			return js.mapAttempt(g[0], name)
		}
	}
	if canReduce {
		if g := js.reduces.Assign(name, 1, now, nil); len(g) == 1 {
			return js.reduceAttempt(g[0], name)
		}
	}
	if canMap {
		if g := js.maps.Speculate(name, 1, now); len(g) == 1 {
			return js.mapAttempt(g[0], name)
		}
	}
	if canReduce {
		if g := js.reduces.Speculate(name, 1, now); len(g) == 1 {
			return js.reduceAttempt(g[0], name)
		}
	}
	return nil
}

// checkExpiredTrackers declares trackers lost after the expiry window
// and releases their running attempts (the paper: "the JobTracker can
// detect a node failure and reschedule the task to another
// TaskTracker").
func (jt *JobTracker) checkExpiredTrackers(p *sim.Proc) {
	if jt.active == nil {
		return
	}
	for name, last := range jt.lastHB {
		if !jt.dead[name] && p.Now()-last > jt.cfg.TrackerExpiry {
			jt.dead[name] = true
			jt.active.release(name)
		}
	}
}

// maybeFinishActive completes the active job when every task is done,
// then activates the next queued job.
func (jt *JobTracker) maybeFinishActive(p *sim.Proc) {
	js := jt.active
	if js == nil || !js.maps.Done() || (js.reduces != nil && !js.reduces.Done()) {
		return
	}
	p.Sleep(jt.cfg.JobCleanup)
	js.result.Finished = p.Now()
	js.result.Attempts = js.maps.Attempts()
	if js.reduces != nil {
		js.result.Attempts += js.reduces.Attempts()
	}
	js.result.EnergyJoules = jt.jobEnergy(js)
	jt.active = nil
	js.handle.done.Open()
	jt.activateNext(p)
}

// jobEnergy models cluster energy over the job: idle baseline on every
// worker for the makespan plus the incremental busy power of each task
// attempt (perfmodel energy extension; paper §V names this the open
// question for data-intensive acceleration).
func (jt *JobTracker) jobEnergy(js *jobState) float64 {
	span := (js.result.Finished - js.result.Submitted).Seconds()
	idle := span * float64(len(jt.clus.Nodes)) * perfmodel.QS22IdleWatts
	var busy float64
	perSlot := (perfmodel.QS22BusyWatts - perfmodel.QS22IdleWatts) / float64(jt.cfg.MapSlots)
	for _, t := range js.result.Tasks {
		busy += (t.End - t.Start).Seconds() * perSlot
	}
	return idle + busy
}

// Runtime wires a JobTracker and one TaskTracker per worker node and
// provides the submission API.
type Runtime struct {
	Eng  *sim.Engine
	Clus *cluster.Cluster
	Cfg  Config
	JT   *JobTracker
	TTs  []*TaskTracker
}

// NewRuntime starts the Hadoop daemons on the cluster.
func NewRuntime(eng *sim.Engine, clus *cluster.Cluster, cfg Config) *Runtime {
	r := &Runtime{Eng: eng, Clus: clus, Cfg: cfg}
	r.JT = newJobTracker(eng, clus, cfg)
	for _, node := range clus.Nodes {
		r.TTs = append(r.TTs, newTaskTracker(eng, r.JT, node, cfg))
	}
	return r
}

// Submit validates and enqueues a job, returning its handle.
func (r *Runtime) Submit(job *Job) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	js := &jobState{
		job:            job,
		mapLaunches:    make([]int, len(job.Splits)),
		reduceLaunches: make([]int, job.Reduces),
		result:         &JobResult{Name: job.Name, Submitted: r.Eng.Now()},
	}
	var err error
	if js.maps, err = sched.NewBoard(len(job.Splits), noLease, r.Cfg.Options); err != nil {
		return nil, err
	}
	if job.Reduces > 0 {
		if js.reduces, err = sched.NewBoard(job.Reduces, noLease, r.Cfg.Options); err != nil {
			return nil, err
		}
	}
	for i := range job.Splits {
		js.result.InputBytes += job.Splits[i].InputBytes()
	}
	js.handle = &JobHandle{Job: job, done: &sim.Gate{}, result: js.result}
	r.JT.inbox.Send(jtMsg{kind: msgSubmit, job: js})
	return js.handle, nil
}

// Shutdown stops all daemons (the JobTracker after draining its inbox)
// so the simulation can end. Call after every submitted job completed.
func (r *Runtime) Shutdown() {
	for _, tt := range r.TTs {
		tt.Kill()
	}
	r.JT.inbox.Send(jtMsg{kind: msgShutdown})
}

// KillNode simulates the failure of one worker: its TaskTracker stops
// heartbeating and its running tasks never report.
func (r *Runtime) KillNode(name string) error {
	for _, tt := range r.TTs {
		if tt.Node.Name == name {
			tt.Kill()
			return nil
		}
	}
	return fmt.Errorf("hadoop: no tracker on node %q", name)
}
