package netmr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hetmr/internal/flow"
	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// partKey names a piece of a task output in a tracker's shuffle store:
// partition part of map task mapTask's output, or a whole output (its
// store slot) when either is -1.
type partKey struct {
	mapTask int
	part    int
}

// mapOutputKey is the store slot of a map task's output: its run of
// partitions, or a byte-stream kernel's parked output (part -1 can
// never collide with a real partition).
func mapOutputKey(task int) partKey { return partKey{mapTask: task, part: -1} }

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
	// tracker counts local vs remote fetches.
	LocalDataNode string

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

	// words holds one host word table per slot, lent to each host word
	// count's Partition (Task.words), so a table keeps its memory.
	words chan *kernels.WordTable

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
// DataNode, and how many another one.
func (tt *TaskTracker) FetchStats() (local, remote int64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.localFetch, tt.remoteFetch
}

// Drained returns a channel closed once a JobTracker-initiated
// decommission drain completes: in-flight tasks finished, results
// reported, and every held shuffle/output byte purged. The caller
// (Cluster.DecommissionWorker, or an operator) then stops the tracker.
func (tt *TaskTracker) Drained() <-chan struct{} { return tt.drained }

// ShuffleAddr is the tracker's shuffle-store (data plane) address.
func (tt *TaskTracker) ShuffleAddr() string { return tt.srv.Addr() }

// StartTaskTracker launches a tracker as worker number worker of cfg
// (its device, task delay and stores), polling the JobTracker at
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
		srv:           srv,
		delay:         at(cfg.TaskDelays, worker),
		device:        device,
		words:         make(chan *kernels.WordTable, cfg.Slots),
		store:         newShuffleStore(cfg.SpillDir, cfg.SpillMem),
		fetchWin:      flow.NewWindow(cfg.fetchWindow()),
		wake:          make(chan struct{}, 1),
		dead:          make(chan struct{}),
		drained:       make(chan struct{}),
	}
	for range cfg.Slots {
		tt.words <- new(kernels.WordTable)
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

// fetchChunkBytes is the largest chunk a pieceStream asks for, and so
// the buffer it holds for the whole merge: a reduce task holds one per
// remote piece (six 64 KiB buffers against the 3 MB of remote pieces of
// a bench terasort reduce). rpcnet keeps a reply tail this size in its
// small buffer class, apart from block-sized ones. The window may grant
// less when it is smaller than one chunk.
const fetchChunkBytes = 64 << 10

// FetchWindowLimit reports the tracker's shuffle-fetch credit window
// size in bytes.
func (tt *TaskTracker) FetchWindowLimit() int64 { return tt.fetchWin.Limit() }

// FetchWindowPeak reports the high-water mark of outstanding
// shuffle-fetch bytes — always ≤ FetchWindowLimit, which is the
// flow-control guarantee tests assert.
func (tt *TaskTracker) FetchWindowPeak() int64 { return tt.fetchWin.Peak() }

// handleFetchPartition answers with the requested range of a stored
// payload as the reply tail — the store's own bytes when the payload is
// in memory, which go to the socket uncopied and stay lent, through a
// purge of the job or the store's Close, until the reply is written.
func (tt *TaskTracker) handleFetchPartition(args FetchPartitionArgs, _ *rpcnet.Tail) (FetchPartitionReply, rpcnet.Reply, error) {
	data, size, done, err := tt.store.lend(args.JobID, partKey{args.MapTask, args.Part}, args.Offset, args.MaxBytes)
	if err != nil {
		return FetchPartitionReply{}, rpcnet.Reply{}, fmt.Errorf("netmr: tracker %s holds no partition %d of job %d map %d",
			tt.ID, args.Part, args.JobID, args.MapTask)
	}
	return FetchPartitionReply{Size: size}, rpcnet.Reply{Bytes: data, Release: done}, nil
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
	args.TrackerID, args.LocalDataNode = tt.ID, tt.LocalDataNode
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
	if len(task.Block.Replicas) == 0 {
		return tt.runMap(task, kern, nil, res)
	}
	return tt.fetchBlock(task.Block, func(data []byte) error {
		return tt.runMap(task, kern, data, res)
	})
}

// runMap runs one map task over data — borrowed, straight from the
// frame buffer its reply landed in (see MapKernel) — and stores or
// delivers what the kernel returns.
func (tt *TaskTracker) runMap(task Task, kern MapKernel, data []byte, res *TaskResult) error {
	if task.NumParts > 0 && kern.Partition != nil {
		// Distributed shuffle: the run stays here, its partitions served
		// over FetchPartition; only its location crosses the heartbeat.
		run, sizes, err := tt.partitionTask(task, kern, data)
		if err != nil {
			return err
		}
		if len(sizes) != task.NumParts {
			return fmt.Errorf("netmr: kernel %s cut %d partitions of %d", task.Kernel, len(sizes), task.NumParts)
		}
		if err := tt.store.put(task.JobID, mapOutputKey(task.TaskID), run, sizes); err != nil {
			return err
		}
		// Per-partition sizes ride the heartbeat so the JobTracker can
		// grant the heaviest reduce ranges first (LPT).
		res.PartBytes, res.ShuffleAddr = sizes, tt.srv.Addr()
		return nil
	}
	out, err := tt.mapTask(task, kern, data)
	if err != nil {
		return err
	}
	return tt.deliver(task.JobID, kern, mapOutputKey(task.TaskID), out, res)
}

// deliver leaves a final-phase task output where the kernel table says
// it goes. A byte-stream kernel's (no Reduce) parks here, spilling past
// the watermark, and only its location rides the heartbeat: the client
// fetches it straight from this store. A structured kernel's partial
// rides the heartbeat to the JobTracker, which keeps it for the
// client's Reduce.
func (tt *TaskTracker) deliver(jobID int64, kern MapKernel, slot partKey, out []byte, res *TaskResult) error {
	if kern.Reduce != nil {
		res.Output = out
		return nil
	}
	if err := tt.store.put(jobID, slot, out, nil); err != nil {
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
// variants agree (see MapKernel.AccelMap), so the fallback is invisible
// to the job.
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
func (tt *TaskTracker) partitionTask(task Task, kern MapKernel, data []byte) ([]byte, []int64, error) {
	if tt.offloads(task) && kern.AccelPartition != nil {
		run, sizes, err := kern.AccelPartition(tt.device, task, data, task.NumParts)
		if err == nil {
			tt.noteAccel()
			return run, sizes, nil
		}
		if !errors.Is(err, errAccelFallback) {
			return nil, nil, err
		}
	}
	// A tracker runs at most one task per slot, so a table is free.
	task.words = <-tt.words
	defer func() { tt.words <- task.words }()
	return kern.Partition(task, data, task.NumParts)
}

// fetchParallel caps how many of a reduce task's remote pieces open
// at once; the credit window bounds the bytes, this bounds the
// connections.
const fetchParallel = 4

// runReduce does one reduce task's work: merge partition task.TaskID
// from every mapper tracker's shuffle store with the kernel. A piece in
// this tracker's own store is read in place, lent until Merge returns
// (a purge of the job meanwhile frees nothing under it); a remote one is a
// pieceStream, opened up to fetchParallel at a time and then pulled
// chunk by chunk as Merge reads it, so the task holds one chunk per
// remote piece, not the piece. A fetch failure, on opening or mid-merge,
// names the unreachable store so the JobTracker can re-run the map
// tasks that died with it.
func (tt *TaskTracker) runReduce(task Task, kern MapKernel, res *TaskResult) error {
	own := tt.srv.Addr()
	pieces := make([]Piece, len(task.Inputs))
	streams := make([]*pieceStream, len(task.Inputs))
	for i, ref := range task.Inputs {
		if ref.Addr != own {
			streams[i] = &pieceStream{tt: tt, addr: ref.Addr,
				args: FetchPartitionArgs{JobID: task.JobID, MapTask: ref.MapTask, Part: task.TaskID}}
			continue
		}
		data, _, done, err := tt.store.lend(task.JobID, partKey{ref.MapTask, task.TaskID}, 0, 0)
		if err != nil {
			res.BadAddr = own
			return fmt.Errorf("netmr: local partition %d of job %d map %d missing",
				task.TaskID, task.JobID, ref.MapTask)
		}
		defer done()
		pieces[i] = Piece{bytes.NewReader(data), int64(len(data))}
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	sem := make(chan struct{}, fetchParallel)
	for _, s := range streams {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if !failed.Load() && s.fill() != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if bad := failedStream(streams); bad != nil {
		res.BadAddr = bad.addr
		return bad.err
	}
	for i, s := range streams {
		if s != nil {
			pieces[i] = Piece{s, s.size}
		}
	}
	out, err := kern.Merge(pieces)
	if err != nil {
		if bad := failedStream(streams); bad != nil {
			res.BadAddr = bad.addr
		}
		return err
	}
	return tt.deliver(task.JobID, kern, streamedReduceKey(task.TaskID), out, res)
}

// failedStream returns the first stream whose fetch failed, if any.
func failedStream(streams []*pieceStream) *pieceStream {
	for _, s := range streams {
		if s != nil && s.err != nil {
			return s
		}
	}
	return nil
}

// pieceStream is one remote piece of a reduce task's partition, read
// from its peer's shuffle store in chunked FetchPartition calls as the
// merge asks for bytes. Each call holds its chunk's byte count as credit
// in the tracker's fetch window only while it is in flight — the
// credit-based flow control of the shuffle plane — and the lent chunk
// is copied into the stream's one buffer, min(fetchChunkBytes, piece
// size) long, allocated when the first reply names the piece's size.
type pieceStream struct {
	tt   *TaskTracker
	addr string
	args FetchPartitionArgs // Offset: bytes fetched so far
	size int64              // the piece's size, named by the first reply
	buf  []byte             // the last chunk fetched; nil before the first
	pos  int                // bytes of buf already read
	err  error              // the fetch error that ended the stream
}

// fill replaces the stream's buffer with its next chunk. The window may
// grant less than a chunk (never more than its limit), and the stream
// then simply takes more, smaller calls.
func (s *pieceStream) fill() error {
	want := int64(fetchChunkBytes)
	if s.buf != nil {
		want = min(want, s.size-s.args.Offset)
	}
	credit := s.tt.fetchWin.Acquire(want)
	s.args.MaxBytes = credit
	s.buf, s.pos = s.buf[:0], 0
	var rep FetchPartitionReply
	err := s.tt.wire.bulk(s.addr, "FetchPartition", s.args, nil, &rep, func(chunk []byte) error {
		if s.buf == nil {
			s.size = rep.Size
			s.buf = make([]byte, 0, min(fetchChunkBytes, rep.Size))
		}
		s.buf = append(s.buf, chunk...)
		return nil
	})
	s.tt.fetchWin.Release(credit)
	if err == nil && len(s.buf) == 0 && s.args.Offset < s.size {
		err = fmt.Errorf("netmr: %s sent no bytes of job %d map %d partition %d at offset %d of %d",
			s.addr, s.args.JobID, s.args.MapTask, s.args.Part, s.args.Offset, s.size)
	}
	s.args.Offset += int64(len(s.buf))
	s.err = err
	return err
}

// Read hands out the buffered chunk, fetching the next one when it is
// used up; a fetch error ends the stream with that error.
func (s *pieceStream) Read(p []byte) (int, error) {
	for s.pos == len(s.buf) {
		switch {
		case s.err != nil:
			return 0, s.err
		case s.args.Offset >= s.size:
			return 0, io.EOF
		}
		s.fill()
	}
	n := copy(p, s.buf[s.pos:])
	s.pos += n
	return n, nil
}

// fetchBlock reads one DFS block through the shared read-failover
// protocol (readBlockFrom), trying the co-located DataNode first, then
// the other replicas in placement order — what keeps map tasks running
// through a DataNode death while preferring the cheapest surviving
// copy — and runs use on it in place (valid until use returns). The
// co-located read is the same Get over the same protocol; only its
// connection is an in-process pipe rather than a loopback socket
// (connCache.local).
func (tt *TaskTracker) fetchBlock(blk BlockInfo, use func([]byte) error) error {
	ordered := slices.Clone(blk.Replicas)
	if i := slices.Index(ordered, tt.LocalDataNode); i > 0 {
		ordered = slices.Insert(slices.Delete(ordered, i, i+1), 0, tt.LocalDataNode)
	}
	served, err := readBlockFrom(tt.wire, blk, ordered, use)
	if served == "" {
		return err
	}
	tt.mu.Lock()
	if served == tt.LocalDataNode {
		tt.localFetch++
	} else {
		tt.remoteFetch++
	}
	tt.mu.Unlock()
	return err
}
