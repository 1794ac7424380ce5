package hadoop

import (
	"fmt"

	"hetmr/internal/cluster"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sim"
)

// TaskTracker is the per-node worker daemon: it heartbeats the
// JobTracker, launches assigned map tasks into its slots, feeds them
// records through the RecordReader path, and reports completions on
// the next heartbeat (as Hadoop 0.19 did).
type TaskTracker struct {
	Node *cluster.Node
	jt   *JobTracker
	cfg  Config
	eng  *sim.Engine

	slots       *sim.Resource
	reduceSlots *sim.Resource
	completed   []taskReport
	reply       sim.Mailbox[*TaskAttempt]
	killed      bool

	// assignedNotLaunched counts tasks handed to us whose slot is not
	// yet occupied, so heartbeats do not over-report free slots.
	assignedNotLaunched       int
	assignedNotLaunchedReduce int
}

func newTaskTracker(eng *sim.Engine, jt *JobTracker, node *cluster.Node, cfg Config) *TaskTracker {
	tt := &TaskTracker{
		Node:        node,
		jt:          jt,
		cfg:         cfg,
		eng:         eng,
		slots:       sim.NewResource(node.Name+"/mapslots", cfg.MapSlots),
		reduceSlots: sim.NewResource(node.Name+"/reduceslots", cfg.ReduceSlots),
	}
	eng.Spawn("tasktracker-"+node.Name, tt.run)
	return tt
}

// Kill stops the tracker: no more heartbeats, and tasks finishing
// after the kill are never reported (their node died with them).
func (tt *TaskTracker) Kill() { tt.killed = true }

// run is the heartbeat loop.
func (tt *TaskTracker) run(p *sim.Proc) {
	// Desynchronize tracker heartbeats like real clusters.
	p.Sleep(tt.eng.RNG().Jitter(tt.cfg.HeartbeatInterval))
	for !tt.killed {
		free := tt.slots.Available() - tt.assignedNotLaunched
		if free < 0 {
			free = 0
		}
		freeReduce := tt.reduceSlots.Available() - tt.assignedNotLaunchedReduce
		if freeReduce < 0 {
			freeReduce = 0
		}
		reports := tt.completed
		tt.completed = nil
		tt.jt.inbox.Send(jtMsg{
			kind:            msgHeartbeat,
			tracker:         tt,
			freeSlots:       free,
			freeReduceSlots: freeReduce,
			completed:       reports,
			reply:           &tt.reply,
		})
		if attempt := tt.reply.Recv(p); attempt != nil {
			if attempt.IsReduce() {
				tt.assignedNotLaunchedReduce++
				tt.eng.Spawn(fmt.Sprintf("reduce-%s-r%d-a%d", tt.Node.Name,
					attempt.ReduceIndex, attempt.Attempt), func(tp *sim.Proc) {
					tt.runReduce(tp, attempt)
				})
			} else {
				tt.assignedNotLaunched++
				tt.eng.Spawn(fmt.Sprintf("task-%s-s%d-a%d", tt.Node.Name,
					attempt.Split.Index, attempt.Attempt), func(tp *sim.Proc) {
					tt.runTask(tp, attempt)
				})
			}
		}
		p.Sleep(tt.cfg.HeartbeatInterval)
	}
}

// runTask executes one map task attempt: occupy a slot, pay the task
// launch (JVM) cost, stream records through the RecordReader, charge
// the mapper's compute time per record, write map output, and queue
// the completion report for the next heartbeat.
func (tt *TaskTracker) runTask(p *sim.Proc, attempt *TaskAttempt) {
	tt.slots.Acquire(p, 1)
	tt.assignedNotLaunched--
	defer tt.slots.Release(1)

	start := p.Now()
	p.Sleep(tt.cfg.TaskLaunch)

	mapper := attempt.job.job.MapperFor(tt.Node)
	stat := TaskStat{
		Split:   attempt.Split.Index,
		Attempt: attempt.Attempt,
		Tracker: tt.Node.Name,
		Start:   start,
	}

	var outBytes int64
	if attempt.Split.Samples > 0 {
		// CPU-intensive task: no input working set (paper §IV-B:
		// "there is no input working set since it is a CPU-intensive
		// only task").
		p.Sleep(mapper.SampleTime(attempt.Split.Samples))
	}
	for _, rec := range attempt.Split.Records {
		local := tt.fetchRecord(p, rec)
		if local {
			stat.LocalHit++
		} else {
			stat.Remote++
		}
		p.Sleep(mapper.RecordTime(rec.Bytes))
		if out := mapper.OutputBytes(rec.Bytes); out > 0 {
			// Map output goes to the local disk (spill + commit).
			tt.Node.Disk.Transfer(p, out)
			outBytes += out
		}
	}
	stat.Output = outBytes

	stat.End = p.Now()
	if tt.killed {
		// The node died while the task ran: the report is lost; the
		// JobTracker will expire us and re-run the split elsewhere.
		return
	}
	tt.completed = append(tt.completed, taskReport{attempt: attempt, stat: stat})
}

// runReduce executes one reduce task attempt: occupy a reduce slot,
// shuffle this reducer's share of the map output across the network,
// merge-sort it on local disk, run the reduce function, and report on
// the next heartbeat. ("The JobTracker is also responsible for
// collecting and sorting the partial results produced by the Mappers
// in order to use them as the input for the reduce phase.")
func (tt *TaskTracker) runReduce(p *sim.Proc, attempt *TaskAttempt) {
	tt.reduceSlots.Acquire(p, 1)
	tt.assignedNotLaunchedReduce--
	defer tt.reduceSlots.Release(1)

	start := p.Now()
	p.Sleep(tt.cfg.TaskLaunch)

	js := attempt.job
	share := js.mapOutputBytes / int64(js.job.Reduces)
	if share > 0 {
		// Shuffle: map outputs are spread across the cluster, so the
		// reducer's share arrives through its NIC.
		tt.Node.NIC.Transfer(p, share)
		// External merge sort: one write + one read pass on disk.
		tt.Node.Disk.Transfer(p, 2*share)
		// Reduce function over the sorted run.
		rate := js.job.ReduceRate
		if rate <= 0 {
			rate = perfmodel.AESPower6BytesPerSec // generic host rate
		}
		p.Sleep(sim.Seconds(float64(share) / rate))
	}

	stat := TaskStat{
		Split:    attempt.ReduceIndex,
		IsReduce: true,
		Attempt:  attempt.Attempt,
		Tracker:  tt.Node.Name,
		Start:    start,
		End:      p.Now(),
	}
	if tt.killed {
		return
	}
	tt.completed = append(tt.completed, taskReport{attempt: attempt, stat: stat})
}

// fetchRecord models the RecordReader pulling one record from a
// DataNode. Local records cross the node's loopback delivery path at
// the measured effective rate (the paper's data-intensive bottleneck);
// remote records first cross the source node's NIC, then are delivered
// the same way. Reports whether the read was local.
func (tt *TaskTracker) fetchRecord(p *sim.Proc, rec Record) bool {
	local := false
	for _, h := range rec.Hosts {
		if h == tt.Node.Name {
			local = true
			break
		}
	}
	if !local && len(rec.Hosts) > 0 {
		if src, ok := tt.jt.clus.ByName(rec.Hosts[0]); ok {
			// Source disk read and NIC hop.
			src.Disk.Transfer(p, rec.Bytes)
			src.NIC.Transfer(p, rec.Bytes)
			tt.Node.NIC.Transfer(p, rec.Bytes)
		}
	}
	// DataNode -> TaskTracker delivery over the loopback interface,
	// shared by the node's concurrent mappers.
	tt.Node.Loopback.Transfer(p, rec.Bytes)
	return local
}
