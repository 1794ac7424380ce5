// Package netmr is the live system over real sockets: a compact
// Hadoop-architecture MapReduce runtime whose daemons — NameNode,
// DataNodes, JobTracker, TaskTrackers — are TCP servers exchanging
// framed RPCs (internal/rpcnet: a gob message, plus a raw tail of block
// or shuffle bytes on the bulk methods, both uncompressed), storing real
// blocks and running real kernels. It is the in-process live runner's
// (internal/core) distributed sibling: same roles as the paper's §III
// prototype, but data actually crosses the network stack, including
// the DataNode→TaskTracker hop whose effective bandwidth the paper
// identified as the data-intensive bottleneck.
//
// The data plane is distributed, mirroring the paper's Hadoop
// architecture: bulk bytes never travel through the JobTracker.
// Mappers partition their output into a per-tracker shuffle store
// served over rpcnet, reducers pull partitions directly from the
// mapper trackers and merge them, a byte-stream job's result stays in
// those stores until the client collects it, and heartbeats carry only
// metadata — output locations, task failures and the small structured
// partials of wordcount and pi (see MapKernel).
//
// The JobTracker is a long-running multi-tenant job service, not a
// one-job driver: Submit/Status/Kill/ListJobs RPCs manage many
// concurrent jobs, each with its own task boards and job-id-prefixed
// shuffle namespace. Tenants carry quotas (Quota: fair-share weight,
// job/tracker caps, a held-spill-bytes budget) enforced at admission
// with the typed ErrQuotaExceeded, and free heartbeat slots are
// granted across tenants by weighted deficit round-robin
// (internal/sched's FairShare); JobSpec.Tenant names the submitter.
//
// Each master is a daemon shell — server, lock, goroutines — around
// state components that hold no lock of their own, do no I/O and take
// the current time as a parameter, so each is tested without a socket:
// the membership roster both masters share (membership.go), and the
// JobTracker's admission control (admission.go), job records (job.go)
// and grant pass (grant.go). Every RPC handler is a typed function the
// in-process callers use too.
package netmr

import "time"

// BlockInfo describes one stored block: its cluster-wide ID, size and
// every replica holding it.
type BlockInfo struct {
	ID   int64
	Size int64
	// Replicas lists the RPC address of every DataNode holding the
	// block, primary first. Readers fail over along this list when a
	// DataNode is down.
	Replicas []string
}

// --- NameNode RPC messages ---

// RegisterArgs announces a DataNode. It doubles as the DataNode's
// periodic liveness heartbeat: registration is idempotent, the first
// beat registers the node (dynamic membership — nothing is wired at
// boot) and every later one refreshes the NameNode's liveness view. A
// node re-registering after being declared dead rejoins cleanly.
type RegisterArgs struct {
	Addr string
	// Freed acknowledges the Free list of the node's last answered
	// beat: it dropped those blocks, so the NameNode may forget them.
	// Until a beat acknowledges an ID the NameNode keeps naming it, so
	// a reply lost in transit costs a repeat, never a leaked replica.
	Freed []int64
}

// RegisterReply acknowledges registration. Draining tells the node the
// NameNode is decommissioning it: it keeps serving reads but should
// expect removal once its blocks are re-replicated.
type RegisterReply struct {
	Draining bool
	// Free names blocks of deleted files this node stores a replica
	// of: the node drops them from its block store and acknowledges
	// them in its next beat's Freed. An ID stays here until then.
	Free []int64
}

// ReplicateArgs asks a DataNode to push one of its stored blocks to a
// peer — the NameNode-driven re-replication transfer: the NameNode
// plans the copy and the source node moves the bytes directly, so
// block payloads never cross the metadata master.
type ReplicateArgs struct {
	ID     int64
	Target string // destination DataNode RPC address
}

// ReplicateReply acknowledges the transfer.
type ReplicateReply struct{}

// DecommissionDNArgs asks the NameNode to gracefully retire a
// DataNode: its blocks are re-replicated onto the surviving nodes
// first (restoring the replication target without it), then the node
// is dropped from every replica list and from placement.
type DecommissionDNArgs struct {
	Addr string
}

// DecommissionDNReply acknowledges the decommission.
type DecommissionDNReply struct{}

// DataNodeInfo is one DataNode's row in a ListDataNodes reply.
type DataNodeInfo struct {
	Addr string
	// State is the node's lifecycle state: "alive", "draining" or
	// "dead".
	State string
	// Blocks counts block replicas placed on the node.
	Blocks int
}

// ListDataNodesArgs asks for the NameNode's membership view.
type ListDataNodesArgs struct{}

// ListDataNodesReply lists every known DataNode in registration order.
type ListDataNodesReply struct {
	Nodes []DataNodeInfo
}

// AllocateArgs asks for a placement of one new block of a file.
type AllocateArgs struct {
	File      string
	Size      int64
	Preferred string // DataNode address to favour (writer locality)
}

// AllocateReply returns the new block's identity and homes.
type AllocateReply struct {
	Block BlockInfo
}

// ConfirmArgs prunes a just-written block's replica list to the
// DataNodes that actually stored it — the write-path failover: a dead
// replica target costs the block a copy, never the write.
type ConfirmArgs struct {
	File     string
	BlockID  int64
	Replicas []string
}

// ConfirmReply acknowledges the pruning.
type ConfirmReply struct{}

// LookupArgs names a file.
type LookupArgs struct {
	File string
}

// LookupReply lists the file's blocks in order.
type LookupReply struct {
	Blocks []BlockInfo
}

// ListArgs requests the namespace listing.
type ListArgs struct{}

// ListReply returns sorted file names.
type ListReply struct {
	Files []string
}

// DeleteArgs names a file to remove: its metadata goes at once, its
// block replicas as each DataNode's next heartbeat collects its
// RegisterReply.Free list.
type DeleteArgs struct {
	File string
}

// DeleteReply acknowledges deletion.
type DeleteReply struct{}

// --- DataNode RPC messages ---
//
// Block bytes never ride inside these structs: Put's block is the
// request's raw frame tail and Get's is the reply's (rpcnet.CallTail),
// so a block crosses each hop without passing through gob.

// PutArgs stores a block replica, the request tail.
type PutArgs struct {
	ID int64
}

// PutReply acknowledges storage.
type PutReply struct{}

// GetArgs fetches a block.
type GetArgs struct {
	ID int64
}

// GetReply acknowledges a Get; the block is the reply tail.
type GetReply struct{}

// --- TaskTracker shuffle-store RPC messages ---

// FetchPartitionArgs asks a TaskTracker's shuffle store for one map
// task's partition — the reduce-side pull of the distributed shuffle.
// Offset/MaxBytes select a chunk of the payload for the credit-window
// fetch path; the zero values (0, 0) fetch the whole payload, so
// pre-windowing callers keep working unchanged.
type FetchPartitionArgs struct {
	JobID   int64
	MapTask int
	Part    int
	// Offset is the byte offset into the stored payload to read from.
	Offset int64
	// MaxBytes caps the reply tail's length; <= 0 means "the rest".
	// Each in-flight fetch holds MaxBytes of credit in the reducer's
	// flow window, so outstanding shuffle bytes stay provably bounded.
	MaxBytes int64
}

// FetchPartitionReply rides ahead of the partition payload (or a chunk
// of it), which is the reply tail, and gives the payload's total size,
// so chunked readers know when they have the whole thing.
type FetchPartitionReply struct {
	// Size is the stored payload's total size in bytes, regardless of
	// how much of it this reply's tail carries.
	Size int64
}

// --- JobTracker RPC messages ---

// DefaultTenant is the tenant a job with an empty JobSpec.Tenant is
// accounted to.
const DefaultTenant = "default"

// Quota is one tenant's admission-control and fair-share contract at
// the JobTracker. The zero value is unlimited with weight 1, so
// unconfigured tenants behave exactly as jobs did before tenancy
// existed.
type Quota struct {
	// Weight is the tenant's fair-share weight: over any contended
	// stretch the tenant receives task grants in proportion to it
	// (weight 2 gets twice the fleet of weight 1). 0 selects 1.
	Weight float64
	// MaxJobs caps the tenant's concurrently running (unfinished)
	// jobs; the excess submission is rejected with ErrQuotaExceeded.
	// 0 is unlimited.
	MaxJobs int
	// MaxTrackers caps how many distinct TaskTrackers may hold the
	// tenant's in-flight task attempts at once — the "max trackers
	// granted" share of the fleet. 0 is unlimited.
	MaxTrackers int
	// SpillBytes caps the tenant's resident data-plane footprint:
	// the shuffle partitions, spill frames and streamed outputs its
	// jobs hold across every tracker store (as reported by heartbeat
	// accounting). A submission while the tenant is over budget is
	// rejected with ErrQuotaExceeded. 0 is unlimited.
	SpillBytes int64
	// MaxQueued lets submissions that would exceed MaxJobs or
	// SpillBytes wait in a per-tenant admission queue of this depth
	// instead of failing: queued jobs hold a job ID but no cluster
	// resources, and promote to active in submission order as quota
	// frees up. ErrQuotaExceeded then fires only when the queue is
	// also full. 0 keeps the historical immediate rejection.
	MaxQueued int
}

// JobInfo is one job's row in a ListJobs reply.
type JobInfo struct {
	ID     int64
	Tenant string
	Name   string
	Kernel string
	// Done and Err mirror StatusReply: Err is the terminal error of a
	// failed or killed job, and Done is true whenever Err is set.
	Done bool
	Err  string
	// Completed counts finished tasks across both phases; Total is
	// map tasks plus reduce tasks.
	Completed int
	Total     int
}

// JobSpec describes a job: either a data job over Input (one map task
// per block) or a compute job of NumTasks tasks sharing Samples.
type JobSpec struct {
	Name string
	// Tenant is the submitting tenant for fair-share scheduling,
	// quota accounting and ListJobs filtering ("" means
	// DefaultTenant).
	Tenant  string
	Kernel  string // registry name
	Args    []byte // kernel-specific, gob-encoded
	Input   string // DFS input file ("" for compute jobs)
	Samples int64  // compute jobs: total samples
	// NumTasks for compute jobs (values < 1 run as a single task).
	NumTasks int
	// Seed is the base RNG seed for compute jobs; task i draws from
	// the domain MixSeed(Seed, i). 0 selects the default seed (2009,
	// the paper's year).
	Seed uint64
	// NumReducers is the reduce-task count of a data job whose kernel
	// has the shuffle pair (Partition+Merge): map outputs are partitioned
	// into this many reduce tasks, each scheduled like a map task and
	// fetched directly from the mapper trackers. 0 means 1; negative is
	// rejected at submission. Kernels without the pair ignore it.
	NumReducers int
	// Mapper selects the map-task variant: MapperCell (the default,
	// offload to the tracker's accelerator where one exists, host
	// fallback elsewhere — bit-identical either way) or MapperJava
	// (host path everywhere).
	Mapper string
	// SplitKeys range-routes the shuffle of a byte-stream kernel (sort):
	// map output keys route by binary search into these sorted split keys
	// (kernels.RangePartitioner), so partition p holds exactly the keys
	// below partition p+1 and the job's pieces concatenate in key order —
	// no final merge. Must be sorted and hold exactly NumReducers-1 keys;
	// such a job with more than one reducer and no keys is rejected, since
	// its concatenated partitions would not be in key order. Typically
	// computed by reservoir-sampling the ingest stream
	// (kernels.RecordKeySampler).
	SplitKeys [][]byte
}

// SubmitArgs submits a job.
type SubmitArgs struct {
	Spec JobSpec
}

// SubmitReply returns the job ID.
type SubmitReply struct {
	JobID int64
}

// Task is one unit of work handed to a TaskTracker.
type Task struct {
	JobID   int64
	TaskID  int
	Kernel  string
	Args    []byte
	Block   BlockInfo // data tasks; no Replicas for compute tasks
	Samples int64     // compute tasks
	Seed    uint64
	// NumParts > 0 on a map task asks the tracker to partition its
	// output into NumParts partitions held in its shuffle store.
	NumParts int
	// Reduce marks a reduce task: fetch partition TaskID from every
	// map task's shuffle store (Inputs) and merge with the kernel.
	Reduce bool
	// Inputs locates every map task's output for a reduce task,
	// ordered by map task ID.
	Inputs []MapOutputRef
	// Mapper is the job's resolved map variant (MapperCell or
	// MapperJava): MapperCell lets a tracker with an accelerator run
	// the kernel's accelerated variant; trackers without one (or
	// kernels without a variant) run the bit-identical host path.
	Mapper string
	// SplitKeys carries the job's range-partition split keys to map
	// tasks (see JobSpec.SplitKeys).
	SplitKeys [][]byte
}

// MapOutputRef locates one stored task output: a map task's shuffle
// partition (reduce inputs) or a byte-stream job's final output piece
// (StatusReply.Outputs). MapTask/Part are the FetchPartition
// coordinates; streamed outputs use the sentinel conventions of
// streamedMapKey/streamedReduceKey. The stored bytes are exactly what
// the task's kernel returned (see MapKernel).
type MapOutputRef struct {
	MapTask int
	Part    int
	Addr    string // serving TaskTracker's shuffle-store address
}

// TaskResult reports one completed or failed task attempt.
type TaskResult struct {
	JobID  int64
	TaskID int
	Reduce bool
	// Output is a structured kernel's final-phase partial (a small gob
	// struct). Empty for every stored output — shuffle partitions and
	// byte-stream results stay in the tracker's store and the heartbeat
	// carries only ShuffleAddr.
	Output []byte
	// ShuffleAddr is the store a stored output is served from.
	ShuffleAddr string
	// Err reports a failed attempt (unknown kernel, fetch error,
	// map/reduce error) on the next heartbeat, so the JobTracker
	// re-issues immediately instead of waiting out the lease.
	Err string
	// BadAddr names the unreachable shuffle store behind a reduce
	// fetch failure, so the JobTracker can re-run the map tasks whose
	// outputs died with that tracker.
	BadAddr string
	// PartBytes reports, for a shuffle-path map task, the stored size
	// of each of its partitions. The JobTracker sums them per
	// partition and hands out the heaviest reduce ranges first (LPT),
	// so one skewed range cannot serialize the job's tail.
	PartBytes []int64
}

// HeartbeatArgs is the TaskTracker's report, sent on every tick and at
// once whenever one of its tasks finishes. The first
// heartbeat registers the tracker with the JobTracker's membership
// view (nothing is wired at boot); every later one refreshes its
// liveness.
type HeartbeatArgs struct {
	TrackerID string
	// LocalDataNode is the DataNode co-located with this tracker
	// (same machine in the paper's deployment); the JobTracker
	// prefers handing the tracker tasks whose block lives there.
	LocalDataNode string
	// ShuffleAddr is the tracker's shuffle-store (data plane) address.
	// The JobTracker's membership view keys shuffle state by it: when
	// the tracker is declared dead, map outputs recorded at this
	// address are proactively reopened.
	ShuffleAddr string
	// Device is the tracker's device kind (DeviceCell for an
	// accelerator-equipped node, DeviceHost otherwise): the
	// JobTracker's device-affinity pass steers accelerated map tasks
	// toward matching trackers, and Status surfaces the cluster's
	// device profile.
	Device    string
	FreeSlots int
	Completed []TaskResult
	// HeldJobs lists jobs whose shuffle partitions this tracker still
	// stores; the reply's PurgeJobs names the ones safe to free.
	HeldJobs []int64
	// HeldBytes reports the resident payload bytes behind each entry
	// of HeldJobs — the per-job store accounting the JobTracker sums
	// into each tenant's spill-budget usage.
	HeldBytes map[int64]int64
}

// HeartbeatReply assigns up to FreeSlots new tasks.
type HeartbeatReply struct {
	Tasks []Task
	// PurgeJobs are held jobs that finished (or are unknown): the
	// tracker drops their shuffle partitions.
	PurgeJobs []int64
	// Drain tells the tracker it is being decommissioned: take no new
	// work, finish in-flight tasks, keep serving (and heartbeating
	// for) held shuffle/output state until the JobTracker purges it,
	// then exit.
	Drain bool
}

// DecommissionTrackerArgs asks the JobTracker to gracefully retire a
// TaskTracker: its heartbeats start carrying Drain until its in-flight
// tasks and held shuffle state have drained.
type DecommissionTrackerArgs struct {
	TrackerID string
}

// DecommissionTrackerReply acknowledges the decommission request.
type DecommissionTrackerReply struct{}

// TrackerInfo is one TaskTracker's row in a ListTrackers reply.
type TrackerInfo struct {
	ID     string
	Device string
	// State is the tracker's lifecycle state: "alive", "draining" or
	// "dead".
	State string
}

// ListTrackersArgs asks for the JobTracker's membership view.
type ListTrackersArgs struct{}

// ListTrackersReply lists every tracker that has ever heartbeated,
// sorted by ID.
type ListTrackersReply struct {
	Trackers []TrackerInfo
}

// StatusArgs asks for a job's state. With a zero Hold the reply is the
// immediate snapshot. With a positive Hold the call is a long-poll: the
// JobTracker parks it — without holding its lock — until the job turns
// terminal (finished, failed or killed), the hold expires or the
// JobTracker closes, and replies with the snapshot taken at that edge,
// so a not-done reply to a held call means "still running after Hold".
// The JobTracker caps Hold at maxStatusHold; callers keep it below
// their own call timeout so a parked call never reads as a hung master.
type StatusArgs struct {
	JobID int64
	Hold  time.Duration
}

// maxStatusHold caps how long the JobTracker parks one Status call. It
// is short against waitCallTimeout (a parked call stays distinguishable
// from a hung JobTracker) and bounds how long a parked call can occupy
// one of its connection's handler slots.
const maxStatusHold = time.Second

// StatusReply reports completion. Once Done, a structured kernel's job
// carries its reduced output in Result and a byte-stream kernel's job
// lists its stored pieces in Outputs.
type StatusReply struct {
	Done bool
	// Completed counts finished tasks across both phases; Total is
	// map tasks plus reduce tasks (reduce tasks exist only for kernels
	// with the shuffle pair).
	Completed int
	Total     int
	Result    []byte
	// Err is the terminal job error: a task that exhausted its
	// attempt budget or a failed final reduce. Done is true when set.
	Err string
	// Attempts counts every attempt launched, including re-issues
	// after lease expiry and speculative duplicates; Counts holds
	// winning attempts per tracker ID — the scheduler's per-worker
	// imbalance view.
	Attempts int
	Counts   map[string]int
	// Devices maps every tracker that has heartbeated to its device
	// kind (DeviceCell or DeviceHost) — read alongside Counts, it
	// shows how completions skew toward accelerated nodes on a
	// heterogeneous cluster.
	Devices map[string]string
	// Outputs lists a byte-stream job's stored result pieces in task
	// order once Done: the client fetches each from its tracker's
	// shuffle store and streams it to the sink (Client.WaitOutput).
	// Empty for structured jobs, whose Result travels inline.
	Outputs []MapOutputRef
}

// KillArgs terminates a job: its unfinished work is abandoned, its
// shuffle/spill/streamed-output state is freed on the trackers' next
// heartbeats, and Status reports the kill as the job's terminal error.
// A non-empty Tenant must match the job's tenant — one tenant cannot
// kill another's job.
type KillArgs struct {
	JobID  int64
	Tenant string
}

// KillReply acknowledges the kill. AlreadyDone reports that the job
// had already reached a terminal state, so the kill changed nothing.
type KillReply struct {
	AlreadyDone bool
}

// ListJobsArgs asks for the job table, optionally filtered to one
// tenant ("" lists every tenant's jobs).
type ListJobsArgs struct {
	Tenant string
}

// ListJobsReply returns the matching jobs in submission (ID) order.
type ListJobsReply struct {
	Jobs []JobInfo
}
