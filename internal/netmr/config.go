package netmr

import "time"

// Config is what a netmr deployment is built from. StartCluster reads
// all of it and hands the same value to every daemon it boots, masters
// included; each daemon reads its own fields at construction, and
// per-worker values are slices indexed by the worker number the daemon
// is started as. The zero value of each field selects its default.
// Values the code derives (the credit windows, the DataNode beat) are
// not fields.
type Config struct {
	// Workers is the number of DataNode/TaskTracker pairs StartCluster
	// boots (at least 1).
	Workers int
	// Slots is each tracker's concurrent task count (at least 1).
	Slots int
	// BlockSize is how the cluster's client cuts files into blocks.
	BlockSize int64
	// Heartbeat is every worker daemon's beat interval: a tracker's
	// liveness and idle-pull tick, a DataNode's Register beat. Keep it
	// well under DeadAfter. 0 selects 100 ms.
	Heartbeat time.Duration

	// Replication is the NameNode's per-block replica count (0: two,
	// enough to survive one DataNode death; always capped by the
	// DataNode count).
	Replication int
	// Speculative enables speculative duplicates of straggling
	// in-flight tasks on the JobTracker.
	Speculative bool
	// MaxAttempts caps per-task attempts (0: the scheduler default).
	MaxAttempts int
	// TaskLease is how long an assigned task may stay silent before the
	// JobTracker re-issues it (0: 10 s).
	TaskLease time.Duration
	// DeadAfter enables dead-node detection on both masters: a DataNode
	// or TaskTracker silent for longer than this is declared dead — its
	// blocks re-replicated, its map outputs reopened — without waiting
	// for a reader or reducer to stumble over it. Keep it several
	// Heartbeats long. 0 keeps the lazy, fetch-failure-driven recovery
	// only.
	DeadAfter time.Duration
	// Quotas are the JobTracker's per-tenant quotas and fair-share
	// weights ("" names DefaultTenant; a tenant with no entry is
	// unlimited at weight 1).
	Quotas map[string]Quota

	// Devices is each worker's device profile: DeviceCell equips the
	// worker's tracker with its own Cell accelerator (NewCellDevice),
	// anything else — or no entry — leaves it a general-purpose node,
	// the paper's §V heterogeneous cluster.
	Devices []string
	// TaskDelays makes a worker's tracker sleep that long before every
	// task — straggler fault injection for tests and benchmarks. A
	// worker with no entry runs undelayed.
	TaskDelays []time.Duration

	// SpillMem is the memory watermark of every DataNode block store
	// and tracker shuffle store, in spill.New's convention: 0
	// keeps everything in memory, spill.SpillAll spills everything, a
	// positive value spills what no longer fits under it. A positive
	// watermark also sizes the credit windows: the client's ingest
	// window and each tracker's shuffle-fetch window equal it, so the
	// network side of the data plane is bounded the same way the
	// stores are.
	SpillMem int64
	// SpillDir is the parent of the stores' spill directories ("":
	// the OS temp dir).
	SpillDir string
}

// The defaults of the zero Config fields that have one.
const (
	defaultHeartbeat   = 100 * time.Millisecond
	defaultReplication = 2
	defaultTaskLease   = 10 * time.Second
)

// heartbeat resolves the worker beat interval.
func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return defaultHeartbeat
}

// replication resolves the NameNode's per-block replica target.
func (c Config) replication() int {
	if c.Replication > 0 {
		return c.Replication
	}
	return defaultReplication
}

// taskLease resolves how long a granted task may stay silent.
func (c Config) taskLease() time.Duration {
	if c.TaskLease > 0 {
		return c.TaskLease
	}
	return defaultTaskLease
}

// window is a credit window that defaults to def unless a positive
// spill watermark sets it: a window never admits more bytes in flight
// than a store keeps in memory.
func (c Config) window(def int64) int64 {
	if c.SpillMem > 0 {
		return c.SpillMem
	}
	return def
}

// ingestWindow bounds the cluster client's in-flight WriteFrom block
// bytes (default four blocks).
func (c Config) ingestWindow() int64 { return c.window(4 * c.BlockSize) }

// fetchWindow bounds each tracker's outstanding shuffle-fetch bytes.
func (c Config) fetchWindow() int64 { return c.window(defaultFetchWindow) }

// at returns s[i], or the zero value when s is shorter.
func at[T any](s []T, i int) T {
	var zero T
	if i < len(s) {
		return s[i]
	}
	return zero
}
