// Package hadoop is a from-scratch implementation of the Hadoop 0.19
// MapReduce runtime architecture the paper runs on (§III-A), executing
// on the discrete-event simulator: a JobTracker process that owns the
// job queue, answers TaskTracker heartbeats (one task assignment per
// heartbeat, as in pre-0.20 Hadoop), performs the serialized per-task
// bookkeeping that ultimately caps scaling, detects tracker failures
// and re-executes their tasks; and one TaskTracker process per worker
// node with a fixed number of map slots, a RecordReader that pulls
// records from the (co-located or remote) DataNode, and per-task
// launch costs.
//
// The package models timing, not scheduling: which task a heartbeat is
// granted, which straggler is duplicated, who wins and what becomes
// pending again when a tracker is lost are decided by two sched.Boards
// per job (maps, reduces) — the task table the live and net runtimes
// run — driven here with the virtual clock.
package hadoop

import (
	"fmt"

	"hetmr/internal/cluster"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sched"
	"hetmr/internal/sim"
)

// Record is one RecordReader unit of a split (64 MB in the paper's
// data experiments): a size plus the DataNodes holding its block.
type Record struct {
	Bytes int64
	Hosts []string
}

// Split is one map task's work assignment ("the work assignment unit
// of a node"). Either Records (data-intensive) or Samples
// (CPU-intensive, no input) is set.
type Split struct {
	Index   int
	Records []Record
	// Samples is the Monte Carlo workload for CPU-only jobs.
	Samples int64
	// PreferredHosts guides the locality scheduler: nodes holding
	// most of this split's data.
	PreferredHosts []string
}

// InputBytes totals the split's record sizes.
func (s *Split) InputBytes() int64 {
	var total int64
	for _, r := range s.Records {
		total += r.Bytes
	}
	return total
}

// Mapper models one map-function implementation (the paper's
// "Java-pure" and "Cell-accelerated" variants, plus EmptyMapper).
// Implementations return simulated costs; the functional kernels live
// in internal/kernels and are exercised by the live runner.
type Mapper interface {
	// Name identifies the mapper variant.
	Name() string
	// RecordTime is the compute time to map one record of n bytes.
	RecordTime(n int64) sim.Time
	// SampleTime is the compute time for w Monte Carlo samples.
	SampleTime(w int64) sim.Time
	// OutputBytes is the map output volume for an n-byte record
	// (zero for EmptyMapper, which "did not collect any output").
	OutputBytes(n int64) int64
}

// Job is a submitted MapReduce job.
type Job struct {
	Name   string
	Splits []Split
	// MapperFor returns the mapper variant to run on the given node,
	// letting accelerated jobs fall back to the Java kernel on
	// non-accelerated nodes (heterogeneous-cluster extension).
	MapperFor func(node *cluster.Node) Mapper
	// Reduces is the number of reduce tasks run after all maps
	// complete (0 for map-only jobs such as the paper's encryption
	// runs; the PiEstimator uses 1).
	Reduces int
	// ReduceRate is the reducer's processing rate in bytes/s over its
	// shuffle input (defaults to the Power6 Java sort rate when 0).
	ReduceRate float64
}

// Validate checks the job is well-formed.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("hadoop: job needs a name")
	}
	if len(j.Splits) == 0 {
		return fmt.Errorf("hadoop: job %q has no splits", j.Name)
	}
	if j.MapperFor == nil {
		return fmt.Errorf("hadoop: job %q has no mapper factory", j.Name)
	}
	if j.Reduces < 0 {
		return fmt.Errorf("hadoop: job %q has negative reduce count", j.Name)
	}
	for i, s := range j.Splits {
		if s.Index != i {
			return fmt.Errorf("hadoop: job %q split %d has index %d", j.Name, i, s.Index)
		}
		if len(s.Records) == 0 && s.Samples <= 0 {
			return fmt.Errorf("hadoop: job %q split %d has neither records nor samples", j.Name, i)
		}
	}
	return nil
}

// TaskStat describes one completed task attempt.
type TaskStat struct {
	Split    int // split index for maps, reducer index for reduces
	IsReduce bool
	Attempt  int
	Tracker  string
	Start    sim.Time
	End      sim.Time
	Won      bool  // false for speculative/failed duplicates that lost
	LocalHit int   // records fetched from the local DataNode
	Remote   int   // records fetched across the network
	Output   int64 // map output bytes (shuffle input contribution)
}

// JobResult aggregates a finished job.
type JobResult struct {
	Name        string
	Submitted   sim.Time
	Started     sim.Time // end of job setup
	Finished    sim.Time // end of job cleanup
	Tasks       []TaskStat
	Attempts    int // total attempts launched, incl. speculative/re-run
	LocalReads  int64
	RemoteReads int64
	InputBytes  int64
	// EnergyJoules is the modelled cluster energy for the job's span
	// (perfmodel energy extension).
	EnergyJoules float64
}

// Duration is the job's makespan as the user sees it.
func (r *JobResult) Duration() sim.Time { return r.Finished - r.Submitted }

// JobHandle tracks a submitted job; Wait blocks a process until the
// job finishes.
type JobHandle struct {
	Job    *Job
	done   *sim.Gate
	result *JobResult
}

// Wait blocks p until the job completes and returns the result.
func (h *JobHandle) Wait(p *sim.Proc) *JobResult {
	h.done.Wait(p)
	return h.result
}

// Result returns the result if the job has finished, else nil.
func (h *JobHandle) Result() *JobResult {
	if !h.done.IsOpen() {
		return nil
	}
	return h.result
}

// Config carries the Hadoop runtime constants (defaults mirror the
// paper's Hadoop 0.19 setup; see perfmodel for sources).
type Config struct {
	HeartbeatInterval sim.Time
	HeartbeatProcess  sim.Time
	MapSlots          int
	ReduceSlots       int
	TaskLaunch        sim.Time
	TaskHousekeeping  sim.Time
	JobSetup          sim.Time
	JobCleanup        sim.Time
	// TrackerExpiry is how long the JobTracker waits without
	// heartbeats before declaring a TaskTracker lost and re-running
	// its tasks.
	TrackerExpiry sim.Time
	// Options configures every job's map and reduce Board, exactly as it
	// does on the live and net runtimes: Speculative duplicates the
	// longest-running single-attempt task once no pending work is left,
	// MaxAttempts caps a task's launches for that purpose. The Run-only
	// OnCommit hook and Affinity have no meaning here.
	sched.Options
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: sim.Seconds(perfmodel.HeartbeatSeconds),
		HeartbeatProcess:  sim.Seconds(perfmodel.HeartbeatProcessSeconds),
		MapSlots:          perfmodel.MapSlotsPerNode,
		ReduceSlots:       perfmodel.MapSlotsPerNode,
		TaskLaunch:        sim.Seconds(perfmodel.TaskLaunchSeconds),
		TaskHousekeeping:  sim.Seconds(perfmodel.TaskHousekeepingSeconds),
		JobSetup:          sim.Seconds(perfmodel.JobSetupSeconds),
		JobCleanup:        sim.Seconds(perfmodel.JobCleanupSeconds),
		TrackerExpiry:     60 * sim.Second,
	}
}
