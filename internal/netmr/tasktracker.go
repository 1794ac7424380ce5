package netmr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hetmr/internal/flow"
	"hetmr/internal/rpcnet"
)

// partKey names one map task's partition in a tracker's shuffle store.
type partKey struct {
	mapTask int
	part    int
}

// streamedMapKey is the store slot of a byte-stream map task's parked
// output (part -1 can never collide with a real partition).
func streamedMapKey(task int) partKey { return partKey{mapTask: task, part: -1} }

// streamedReduceKey is the store slot of a byte-stream reduce task's
// parked output (map task -1 can never collide with a real map task).
func streamedReduceKey(part int) partKey { return partKey{mapTask: -1, part: part} }

// TaskTracker is the TCP worker daemon: it pulls work from the
// JobTracker with heartbeats, fetches block data from DataNodes over
// the network (the paper's measured delivery hop), runs the kernel, and
// reports results — or failures — back. Heartbeats have two causes. The
// periodic tick is liveness plus idle pull: it keeps the membership
// view fresh and asks for work while slots sit free. A task finishing
// triggers an out-of-band beat at once: the result is queued and its
// slot freed in one step, so that beat both delivers the completion and
// advertises the slot, and its reply carries the next task (or the
// reduces the last map just unlocked) without waiting out a tick.
//
// Each tracker is also a shuffle server: map tasks of a shuffle job
// leave their partitioned output in the tracker's shuffle store, which
// reduce tasks on any tracker fetch directly over the FetchPartition
// RPC, and a byte-stream kernel's final-phase outputs park there until
// the client collects them. The JobTracker never sees those bytes.
type TaskTracker struct {
	ID        string
	jtAddr    string
	slots     int
	heartbeat time.Duration
	// LocalDataNode, when set, is the co-located DataNode's address;
	// the JobTracker uses it for data-local assignment, and the
	// tracker counts local vs rack vs remote fetches.
	LocalDataNode string

	// rack is the tracker's rack assignment ("" reads as the flat
	// default rack); it rides every heartbeat for the JobTracker's
	// rack-local grant pass and orders replica fetches.
	rack string

	// srv serves the shuffle store (the data plane); its address
	// travels to the JobTracker in map results.
	srv *rpcnet.Server

	// delay is an injected per-task slowdown (straggler fault
	// injection for tests and benchmarks); immutable after start.
	delay time.Duration

	// device is the node's accelerator (nil on general-purpose nodes);
	// immutable after start. Map tasks whose job asks for the cell
	// mapper offload through it when the kernel has an accelerated
	// variant, and its kind travels on every heartbeat for the
	// JobTracker's device-affinity pass.
	device *AccelDevice

	// store is the tracker's shuffle/data-plane store: map-side
	// partitions and streamed task outputs, spilled to disk above the
	// configured watermark.
	store *shuffleStore

	// wire caches pooled connections to DataNodes and peer shuffle
	// stores across tasks; the co-located DataNode's is an in-process
	// pipe when that DataNode shares the tracker's process.
	wire *connCache

	// fetchWin is the tracker's shuffle-fetch credit window
	// (Config.fetchWindow), shared by every reduce attempt on the
	// tracker so outstanding remote partition bytes are bounded
	// tracker-wide (and a fortiori per reducer). Each in-flight
	// FetchPartition chunk holds exactly its MaxBytes of credit.
	fetchWin *flow.Window

	// wake asks the loop for an out-of-band heartbeat; report pokes it
	// after every task. Capacity 1 coalesces a burst of completions into
	// one pending beat.
	wake chan struct{}

	mu          sync.Mutex
	completed   []TaskResult
	running     int
	draining    bool // JobTracker-initiated decommission in progress
	localFetch  int64
	rackFetch   int64
	remoteFetch int64
	accelTasks  int64

	// beater is the heartbeat loop; halting it is the graceful stop
	// (unreported results drain first). dead, closed first, makes the
	// same halt a simulated node death: abandon everything.
	beater  *background
	dead    chan struct{}
	die     sync.Once
	drained chan struct{} // closed once a decommission drain completes
}

// DeviceKind reports the tracker's device kind (DeviceCell when an
// accelerator is attached, DeviceHost otherwise).
func (tt *TaskTracker) DeviceKind() string {
	if tt.device != nil {
		return tt.device.Kind()
	}
	return DeviceHost
}

// AccelTasks reports how many task attempts ran on the accelerator —
// the offload proof the heterogeneous tests and benchmarks assert on.
func (tt *TaskTracker) AccelTasks() int64 {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.accelTasks
}

// FetchStats reports how many block fetches hit the co-located
// DataNode, a DataNode on the tracker's rack, or a remote rack.
func (tt *TaskTracker) FetchStats() (local, rack, remote int64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.localFetch, tt.rackFetch, tt.remoteFetch
}

// Rack returns the tracker's rack assignment ("" for the flat
// default).
func (tt *TaskTracker) Rack() string { return tt.rack }

// Drained returns a channel closed once a JobTracker-initiated
// decommission drain completes: in-flight tasks finished, results
// reported, and every held shuffle/output byte purged. The caller
// (Cluster.DecommissionWorker, or an operator) then stops the tracker.
func (tt *TaskTracker) Drained() <-chan struct{} { return tt.drained }

// ShuffleAddr is the tracker's shuffle-store (data plane) address.
func (tt *TaskTracker) ShuffleAddr() string { return tt.srv.Addr() }

// StartTaskTracker launches a tracker as worker number worker of cfg
// (its rack, device, task delay and stores), polling the JobTracker at
// jtAddr. localDataNode is the co-located DataNode's address ("" when
// the tracker has none).
func StartTaskTracker(id, jtAddr, localDataNode string, worker int, cfg Config) (*TaskTracker, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("netmr: tracker %q needs at least one slot", id)
	}
	var device *AccelDevice
	if at(cfg.Devices, worker) == DeviceCell {
		dev, err := NewCellDevice()
		if err != nil {
			return nil, err
		}
		device = dev
	}
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tt := &TaskTracker{
		ID:            id,
		jtAddr:        jtAddr,
		slots:         cfg.Slots,
		heartbeat:     cfg.heartbeat(),
		LocalDataNode: localDataNode,
		rack:          cfg.rack(worker),
		srv:           srv,
		delay:         at(cfg.TaskDelays, worker),
		device:        device,
		store:         newShuffleStore(cfg.SpillDir, cfg.SpillMem, cfg.SpillCodec),
		fetchWin:      flow.NewWindow(cfg.fetchWindow()),
		wake:          make(chan struct{}, 1),
		dead:          make(chan struct{}),
		drained:       make(chan struct{}),
	}
	tt.wire = newConnCache()
	tt.wire.local = localDataNode
	handleTail(srv, "FetchPartition", tt.handleFetchPartition)
	tt.beater = goBackground(tt.loop)
	return tt, nil
}

// Stop halts the tracker gracefully: in-flight tasks finish and any
// completed-but-unreported results are delivered in one final
// heartbeat before the tracker goes away, so a planned decommission
// never forces the JobTracker to re-run finished work. The shuffle
// store closes with the tracker either way — jobs still needing its
// partitions recover through the fetch-failure re-run path, exactly
// as after a death.
func (tt *TaskTracker) Stop() {
	tt.beater.halt()
	tt.srv.Close()
	tt.store.close()
	tt.wire.close()
}

// Kill simulates node death: the heartbeat loop and shuffle server
// stop immediately, in-flight tasks are abandoned unreported, and the
// JobTracker's lease (or a reducer's fetch failure) re-issues the lost
// work elsewhere.
func (tt *TaskTracker) Kill() {
	tt.die.Do(func() { close(tt.dead) })
	tt.Stop()
}

// SpilledBytes reports the cumulative bytes the tracker's shuffle
// store sent to disk — the proof the watermark actually bounded
// memory.
func (tt *TaskTracker) SpilledBytes() int64 { return tt.store.spilledBytes() }

// JobHeldBytes reports one job's resident bytes in the tracker's
// store (0 after the job is purged).
func (tt *TaskTracker) JobHeldBytes(jobID int64) int64 { return tt.store.jobBytes(jobID) }

// defaultFetchWindow bounds a tracker's outstanding shuffle-fetch
// bytes when no positive spill watermark sizes the window.
const defaultFetchWindow = 8 << 20

// fetchChunkBytes is the preferred chunk size of the credit-window
// fetch loop; the window may grant less when it is smaller than one
// chunk.
const fetchChunkBytes = 256 << 10

// FetchWindowLimit reports the tracker's shuffle-fetch credit window
// size in bytes.
func (tt *TaskTracker) FetchWindowLimit() int64 { return tt.fetchWin.Limit() }

// FetchWindowPeak reports the high-water mark of outstanding
// shuffle-fetch bytes — always ≤ FetchWindowLimit, which is the
// flow-control guarantee tests assert.
func (tt *TaskTracker) FetchWindowPeak() int64 { return tt.fetchWin.Peak() }

// handleFetchPartition answers with the requested range of a stored
// payload as the reply tail — the store's own bytes when the payload is
// in memory, which go to the socket uncopied.
func (tt *TaskTracker) handleFetchPartition(args FetchPartitionArgs, _ []byte) (FetchPartitionReply, []byte, error) {
	data, size, ok := tt.store.getRange(args.JobID, partKey{args.MapTask, args.Part}, args.Offset, args.MaxBytes)
	if !ok {
		return FetchPartitionReply{}, nil, fmt.Errorf("netmr: tracker %s holds no partition %d of job %d map %d",
			tt.ID, args.Part, args.JobID, args.MapTask)
	}
	return FetchPartitionReply{Size: size}, data, nil
}

// heartbeatCallTimeout bounds one Heartbeat round-trip, so a hung
// JobTracker degrades into per-tick call errors instead of wedging the
// loop (and with it Stop/Kill) forever. A variable only so a test can
// shorten it before starting a daemon.
var heartbeatCallTimeout = 5 * time.Second

// beat sends one Heartbeat — args plus who is beating — over the
// tracker's pooled JobTracker connection. An unreachable JobTracker
// fails the dial, a hung one the call; either way the pooled client
// redials on the next beat.
func (tt *TaskTracker) beat(args HeartbeatArgs) (HeartbeatReply, error) {
	args.TrackerID, args.LocalDataNode, args.Rack = tt.ID, tt.LocalDataNode, tt.rack
	args.ShuffleAddr, args.Device = tt.srv.Addr(), tt.DeviceKind()
	var reply HeartbeatReply
	jtc, err := tt.wire.get(tt.jtAddr)
	if err == nil {
		err = jtc.CallTimeout("Heartbeat", args, &reply, heartbeatCallTimeout)
	}
	return reply, err
}

func (tt *TaskTracker) loop(stop <-chan struct{}) {
	ticker := time.NewTicker(tt.heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-tt.dead:
			return
		case <-stop:
			tt.drain()
			return
		case <-ticker.C:
		case <-tt.wake:
		}
		tt.mu.Lock()
		reports := tt.completed
		tt.completed = nil
		free := tt.slots - tt.running
		if tt.draining {
			// A draining tracker takes no new work; it heartbeats on
			// to report results, refresh held-bytes accounting, and
			// learn when its stores may be purged.
			free = 0
		}
		tt.mu.Unlock()
		held, heldBytes := tt.store.held()
		reply, err := tt.beat(HeartbeatArgs{FreeSlots: free, Completed: reports, HeldJobs: held, HeldBytes: heldBytes})
		if err != nil {
			// JobTracker gone or the call timed out: requeue the unsent
			// reports for the next beat.
			tt.mu.Lock()
			tt.completed = append(reports, tt.completed...)
			tt.mu.Unlock()
			continue
		}
		for _, id := range reply.PurgeJobs {
			tt.store.purgeJob(id)
		}
		tt.mu.Lock()
		if reply.Drain {
			tt.draining = true
		}
		for range reply.Tasks {
			tt.running++
		}
		idle := tt.draining && tt.running == 0 && len(tt.completed) == 0
		tt.mu.Unlock()
		for _, task := range reply.Tasks {
			go tt.runTask(task)
		}
		heldNow, _ := tt.store.held()
		if idle && len(heldNow) == 0 {
			// Decommission drain complete: nothing running, nothing
			// unreported, no shuffle/output state left to serve. The
			// loop exits; the decommissioner observes Drained and
			// stops the tracker.
			close(tt.drained)
			return
		}
	}
}

// drainTimeout caps how long a graceful Stop waits for in-flight tasks
// before giving up on the final report.
const drainTimeout = 5 * time.Second

// drain waits for in-flight tasks to finish and delivers every
// completed-but-unreported result in one final heartbeat (FreeSlots 0,
// so no new work comes back) — the graceful half of Stop.
func (tt *TaskTracker) drain() {
	select {
	case <-tt.dead:
		return // Kill halts the loop too, and a dead node reports nothing
	default:
	}
	timeout := time.NewTimer(drainTimeout)
	defer timeout.Stop()
	for timedOut := false; ; {
		tt.mu.Lock()
		running := tt.running
		reports := tt.completed
		if running == 0 || timedOut {
			tt.completed = nil
			tt.mu.Unlock()
			if len(reports) > 0 {
				// Best effort: the JobTracker may already be gone.
				tt.beat(HeartbeatArgs{Completed: reports})
			}
			return
		}
		tt.mu.Unlock()
		select {
		case <-tt.dead:
			return
		case <-tt.wake: // a task reported: re-check
		case <-timeout.C:
			timedOut = true
		}
	}
}

// report ends one task attempt: it queues the result (or failure) and
// frees the attempt's slot in one critical section, then wakes the loop
// for an out-of-band heartbeat — which therefore advertises the freed
// slot in the same beat that delivers the result. A dead node's result
// is dropped.
func (tt *TaskTracker) report(res TaskResult) {
	tt.mu.Lock()
	tt.running--
	select {
	case <-tt.dead: // node died before reporting
	default:
		tt.completed = append(tt.completed, res)
	}
	tt.mu.Unlock()
	select {
	case tt.wake <- struct{}{}:
	default: // a beat is already pending
	}
}

// runTask executes one task attempt and reports its result — or its
// error, so the JobTracker re-issues the task at once instead of
// waiting out the lease.
func (tt *TaskTracker) runTask(task Task) {
	res := TaskResult{JobID: task.JobID, TaskID: task.TaskID, Reduce: task.Reduce}
	if err := tt.execTask(task, &res); err != nil {
		res.Err = err.Error()
	}
	tt.report(res)
}

// execTask does the attempt's work, filling res: fetch the inputs (a
// DFS block for map tasks, shuffle partitions for reduce tasks), run
// the kernel, and leave the output where the kernel table says it goes.
func (tt *TaskTracker) execTask(task Task, res *TaskResult) error {
	kern, err := lookupKernel(task.Kernel)
	if err != nil {
		return err
	}
	if tt.delay > 0 {
		time.Sleep(tt.delay) // injected straggler slowdown
	}
	if task.Reduce {
		return tt.runReduce(task, kern, res)
	}
	var data []byte
	if len(task.Block.Replicas) > 0 {
		data, err = tt.fetchBlock(task.Block)
		if err != nil {
			return err
		}
	}
	if task.NumParts > 0 && kern.Partition != nil {
		// Distributed shuffle: the partitions stay here, served over
		// FetchPartition; only their location crosses the heartbeat.
		parts, err := tt.partitionTask(task, kern, data)
		if err != nil {
			return err
		}
		res.PartBytes = make([]int64, len(parts))
		for p, payload := range parts {
			if err := tt.store.put(task.JobID, partKey{task.TaskID, p}, payload); err != nil {
				return err
			}
			// Per-partition sizes ride the heartbeat so the JobTracker
			// can grant the heaviest reduce ranges first (LPT).
			res.PartBytes[p] = int64(len(payload))
		}
		res.ShuffleAddr = tt.srv.Addr()
		return nil
	}
	out, err := tt.mapTask(task, kern, data)
	if err != nil {
		return err
	}
	return tt.deliver(task.JobID, kern, streamedMapKey(task.TaskID), out, res)
}

// deliver leaves a final-phase task output where the kernel table says
// it goes. A byte-stream kernel's (no Reduce) parks here, spilling past
// the watermark, and only its location rides the heartbeat: the client
// fetches it straight from this store. A structured kernel's partial
// rides the heartbeat for the JobTracker's Reduce.
func (tt *TaskTracker) deliver(jobID int64, kern MapKernel, slot partKey, out []byte, res *TaskResult) error {
	if kern.Reduce != nil {
		res.Output = out
		return nil
	}
	if err := tt.store.put(jobID, slot, out); err != nil {
		return err
	}
	res.ShuffleAddr = tt.srv.Addr()
	return nil
}

// offloads reports whether the task's map work should try the
// accelerator: the node has a device and the job asked for the cell
// mapper (an empty Mapper predates the variant and means the default,
// cell).
func (tt *TaskTracker) offloads(task Task) bool {
	return tt.device != nil && !task.Reduce &&
		(task.Mapper == "" || task.Mapper == MapperCell)
}

// noteAccel counts one completed offload.
func (tt *TaskTracker) noteAccel() {
	tt.mu.Lock()
	tt.accelTasks++
	tt.mu.Unlock()
}

// mapTask runs one map task's kernel, trying the accelerated variant
// first when the task, the node and the kernel all support it. A
// declined offload (errAccelFallback) re-runs on the host path — the
// variants are bit-identical, so the fallback is invisible to the job.
func (tt *TaskTracker) mapTask(task Task, kern MapKernel, data []byte) ([]byte, error) {
	if tt.offloads(task) && kern.AccelMap != nil {
		out, err := kern.AccelMap(tt.device, task, data)
		if err == nil {
			tt.noteAccel()
			return out, nil
		}
		if !errors.Is(err, errAccelFallback) {
			return nil, err
		}
	}
	return kern.Map(task, data)
}

// partitionTask is mapTask for the distributed-shuffle path.
func (tt *TaskTracker) partitionTask(task Task, kern MapKernel, data []byte) ([][]byte, error) {
	if tt.offloads(task) && kern.AccelPartition != nil {
		parts, err := kern.AccelPartition(tt.device, task, data, task.NumParts)
		if err == nil {
			tt.noteAccel()
			return parts, nil
		}
		if !errors.Is(err, errAccelFallback) {
			return nil, err
		}
	}
	return kern.Partition(task, data, task.NumParts)
}

// fetchParallel caps a reduce task's concurrent remote partition
// fetches; the credit window bounds the bytes, this bounds the
// connections.
const fetchParallel = 4

// runReduce does one reduce task's work: pull partition task.TaskID from
// every mapper tracker's shuffle store (local reads short-circuit the
// network) and merge the pieces with the kernel. Remote pieces arrive
// over up to fetchParallel concurrent chunked fetch loops, every
// in-flight chunk holding its byte credit in the tracker's fetch
// window — outstanding shuffle bytes are bounded by the window, not by
// partition sizes. A fetch failure names the unreachable store so the
// JobTracker can re-run the map tasks that died with it.
func (tt *TaskTracker) runReduce(task Task, kern MapKernel, res *TaskResult) error {
	own := tt.srv.Addr()
	pieces := make([][]byte, len(task.Inputs))
	type remote struct {
		i   int
		ref MapOutputRef
	}
	var remotes []remote
	for i, ref := range task.Inputs {
		if ref.Addr == own {
			data, ok := tt.store.get(task.JobID, partKey{ref.MapTask, task.TaskID})
			if !ok {
				res.BadAddr = own
				return fmt.Errorf("netmr: local partition %d of job %d map %d missing",
					task.TaskID, task.JobID, ref.MapTask)
			}
			pieces[i] = data
			continue
		}
		remotes = append(remotes, remote{i, ref})
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fetchErr error
		badAddr  string
	)
	sem := make(chan struct{}, fetchParallel)
	for _, rm := range remotes {
		wg.Add(1)
		go func(rm remote) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			abort := fetchErr != nil
			mu.Unlock()
			if abort {
				return
			}
			data, err := tt.fetchPartition(rm.ref.Addr, FetchPartitionArgs{
				JobID: task.JobID, MapTask: rm.ref.MapTask, Part: task.TaskID,
			})
			if err != nil {
				mu.Lock()
				if fetchErr == nil {
					fetchErr, badAddr = err, rm.ref.Addr
				}
				mu.Unlock()
				return
			}
			pieces[rm.i] = data
		}(rm)
	}
	wg.Wait()
	if fetchErr != nil {
		res.BadAddr = badAddr
		return fetchErr
	}
	out, err := kern.Merge(pieces)
	if err != nil {
		return err
	}
	return tt.deliver(task.JobID, kern, streamedReduceKey(task.TaskID), out, res)
}

// fetchPartition pulls one whole partition from a peer shuffle store
// in fetchChunkBytes-sized pieces, holding each in-flight chunk's byte
// count as credit in the tracker's fetch window — the credit-based
// flow control of the shuffle plane. The window may grant less than a
// full chunk (it never grants more than its limit), in which case the
// loop simply takes more, smaller rounds.
func (tt *TaskTracker) fetchPartition(addr string, args FetchPartitionArgs) ([]byte, error) {
	var out []byte
	for {
		credit := tt.fetchWin.Acquire(fetchChunkBytes)
		args.Offset = int64(len(out))
		args.MaxBytes = credit
		var rep FetchPartitionReply
		// Each chunk lands straight behind the ones already assembled.
		next, err := tt.wire.bulk(addr, "FetchPartition", args, nil, &rep, out)
		tt.fetchWin.Release(credit)
		if err != nil {
			return nil, err
		}
		if int64(len(next)) >= rep.Size || len(next) == len(out) {
			return next, nil
		}
		// The first reply says how big the partition is: size the
		// slice for the rest once instead of growing chunk by chunk.
		out = slices.Grow(next, int(rep.Size)-len(next))
	}
}

// fetchBlock pulls one DFS block through the shared read-failover
// protocol (readBlockFrom), trying replicas in topology order — the
// co-located DataNode first, then same-rack replicas, then the rest in
// placement order — what keeps map tasks running through a DataNode
// death while preferring the cheapest surviving copy. The co-located
// read is the same Get over the same protocol; only its connection is
// an in-process pipe rather than a loopback socket (connCache.local).
func (tt *TaskTracker) fetchBlock(blk BlockInfo) ([]byte, error) {
	addrs := blk.Replicas
	rackOf := make(map[string]string, len(addrs))
	for i, addr := range addrs {
		rackOf[addr] = blk.RackOfReplica(i)
	}
	sameRack := func(addr string) bool {
		return tt.rack != "" && rackOf[addr] == tt.rack
	}
	ordered := make([]string, 0, len(addrs))
	for _, addr := range addrs {
		if addr == tt.LocalDataNode {
			ordered = append(ordered, addr)
		}
	}
	for _, addr := range addrs {
		if addr != tt.LocalDataNode && sameRack(addr) {
			ordered = append(ordered, addr)
		}
	}
	for _, addr := range addrs {
		if addr != tt.LocalDataNode && !sameRack(addr) {
			ordered = append(ordered, addr)
		}
	}
	data, served, err := readBlockFrom(tt.wire, blk, ordered, nil)
	if err != nil {
		return nil, err
	}
	tt.mu.Lock()
	switch {
	case served == tt.LocalDataNode:
		tt.localFetch++
	case sameRack(served):
		tt.rackFetch++
	default:
		tt.remoteFetch++
	}
	tt.mu.Unlock()
	return data, nil
}
