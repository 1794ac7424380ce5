package netmr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"hetmr/internal/flow"
	"hetmr/internal/rpcnet"
)

// Client is the user-facing handle to a running netmr cluster: DFS
// file I/O through the NameNode/DataNodes, job submission through the
// JobTracker. It keeps one pooled, multiplexed connection per daemon
// (redialed transparently if it dies); Close releases them.
type Client struct {
	nnAddr       string
	jtAddr       string
	blockSize    int64
	ingestWindow int64
	wire         *connCache
}

// NewClient builds a client. blockSize governs how files are cut into
// blocks on write; WriteFrom keeps up to four blocks in flight.
func NewClient(nameNodeAddr, jobTrackerAddr string, blockSize int64) (*Client, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("netmr: block size must be positive, got %d", blockSize)
	}
	return &Client{nnAddr: nameNodeAddr, jtAddr: jobTrackerAddr, blockSize: blockSize,
		ingestWindow: Config{BlockSize: blockSize}.ingestWindow(), wire: newConnCache()}, nil
}

// Close releases the client's cached connections. The client must not
// be used afterwards. Idempotent.
func (c *Client) Close() error {
	c.wire.close()
	return nil
}

// jt runs one control-plane call against the JobTracker, nn against
// the NameNode.
func (c *Client) jt(method string, args, reply any) error {
	return c.wire.call(c.jtAddr, method, args, reply)
}

func (c *Client) nn(method string, args, reply any) error {
	return c.wire.call(c.nnAddr, method, args, reply)
}

// WriteFile stores data under name, block by block. preferred, when
// non-empty, is the DataNode address to favour for every block.
func (c *Client) WriteFile(name string, data []byte, preferred string) error {
	_, err := c.WriteFrom(name, bytes.NewReader(data), preferred)
	return err
}

// WriteFrom streams r into the DFS under name, cutting blocks at the
// client's block size. Ingest is windowed: blocks Allocate serially
// (so they land in file order) but replicate concurrently, with the
// in-flight bytes bounded by the client's ingest window — a dataset
// far larger than RAM costs O(window) memory, and the window keeps the
// network pipe full without the old one-block-per-round-trip stall.
// It returns the bytes consumed from r; on error some trailing blocks
// may not have been stored.
func (c *Client) WriteFrom(name string, r io.Reader, preferred string) (int64, error) {
	win := flow.NewWindow(c.ingestWindow)
	free := make(chan []byte, c.ingestWindow/c.blockSize+1)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		putErr error
	)
	fail := func(err error) {
		mu.Lock()
		if putErr == nil {
			putErr = err
		}
		mu.Unlock()
	}
	failed := func() error {
		mu.Lock()
		defer mu.Unlock()
		return putErr
	}
	var total int64
	first := true
	for {
		// Earlier blocks may still be replicating from their buffers: take
		// a returned one (free holds a window's worth) or a new one. The
		// window stalls this loop before in-flight buffers exceed it.
		var buf []byte
		select {
		case buf = <-free:
		default:
			buf = make([]byte, c.blockSize)
		}
		n, rerr := io.ReadFull(r, buf)
		if rerr == io.EOF && !first {
			break // clean end on a block boundary
		}
		if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
			wg.Wait()
			return total, rerr
		}
		if err := failed(); err != nil {
			// A background put failed: stop issuing new blocks.
			wg.Wait()
			return total, err
		}
		chunk := buf[:n] // n == 0 only for an empty file's first block
		credit := win.Acquire(int64(len(chunk)))
		var alloc AllocateReply
		err := c.nn("Allocate", AllocateArgs{
			File: name, Size: int64(len(chunk)), Preferred: preferred,
		}, &alloc)
		if err != nil {
			win.Release(credit)
			wg.Wait()
			return total, err
		}
		wg.Add(1)
		go func(blk BlockInfo, chunk []byte, credit int64) {
			defer wg.Done()
			defer win.Release(credit)
			if err := c.putBlock(name, blk, chunk); err != nil {
				fail(err)
			}
			// The DataNodes copied the block off the wire: the buffer is
			// free once the puts return, and back before the credit is.
			select {
			case free <- chunk[:cap(chunk)]:
			default:
			}
		}(alloc.Block, chunk, credit)
		total += int64(n)
		first = false
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
	}
	wg.Wait()
	if err := failed(); err != nil {
		return total, err
	}
	return total, nil
}

// putBlock stores one allocated block on every replica target.
func (c *Client) putBlock(name string, blk BlockInfo, chunk []byte) error {
	// Every replica gets the block at write time, so readers can
	// fail over when a DataNode dies later. A placement target
	// that is down costs the block a copy, not the write: the
	// surviving replicas are confirmed back to the NameNode so
	// readers never chase the unwritten one.
	var stored []string
	var lastErr error
	for _, addr := range blk.Replicas {
		if err := c.wire.bulk(addr, "Put", PutArgs{ID: blk.ID}, chunk, nil, nil); err != nil {
			lastErr = err
			continue
		}
		stored = append(stored, addr)
	}
	if len(stored) == 0 {
		return fmt.Errorf("netmr: block %d: no replica target reachable: %v",
			blk.ID, lastErr)
	}
	if len(stored) < len(blk.Replicas) {
		return c.nn("Confirm", ConfirmArgs{File: name, BlockID: blk.ID, Replicas: stored}, nil)
	}
	return nil
}

// ReadFile fetches name's full contents.
func (c *Client) ReadFile(name string) ([]byte, error) {
	var lookup LookupReply
	if err := c.nn("Lookup", LookupArgs{File: name}, &lookup); err != nil {
		return nil, err
	}
	var size int64
	for _, blk := range lookup.Blocks {
		size += blk.Size
	}
	// One allocation for the file: each block's lent tail is appended.
	out := make([]byte, 0, size)
	for _, blk := range lookup.Blocks {
		if _, err := readBlockFrom(c.wire, blk, blk.Replicas, func(data []byte) error {
			out = append(out, data...)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dataCallTimeout bounds one data-plane round-trip (a DFS block Get or
// a shuffle FetchPartition): generous for real transfers, but a peer
// that hangs without closing its socket becomes a failed attempt —
// re-issued elsewhere — instead of a leaked task slot.
const dataCallTimeout = 30 * time.Second

// readBlockFrom lends one block to use (rpcnet.CallTail: valid until
// use returns) from the first of addrs that serves all BlockInfo.Size
// bytes of it, and returns that address for the caller's accounting —
// the one copy of the DFS read-failover protocol, shared by the client
// and the TaskTrackers. use's own error is returned at once, not
// retried. A dead replica costs a failed call, not a poisoned cache
// entry (the pooled client redials on reuse).
func readBlockFrom(wire *connCache, blk BlockInfo, addrs []string, use func([]byte) error) (string, error) {
	var lastErr error
	for _, addr := range addrs {
		served := false
		err := wire.bulk(addr, "Get", GetArgs{ID: blk.ID}, nil, nil, func(data []byte) error {
			if int64(len(data)) != blk.Size {
				return fmt.Errorf("replica at %s holds %d bytes, want %d", addr, len(data), blk.Size)
			}
			served = true
			return use(data)
		})
		if served {
			return addr, err
		}
		lastErr = err
	}
	return "", fmt.Errorf("netmr: block %d: no replica served it: %v", blk.ID, lastErr)
}

// ListFiles returns the namespace listing.
func (c *Client) ListFiles() ([]string, error) {
	var list ListReply
	err := c.nn("List", ListArgs{}, &list)
	return list.Files, err
}

// DeleteFile removes name from the namespace. Its block replicas are
// freed as each DataNode next heartbeats the NameNode.
func (c *Client) DeleteFile(name string) error {
	return c.nn("Delete", DeleteArgs{File: name}, nil)
}

// Submit sends a job and returns its ID. An admission-control
// rejection satisfies errors.Is(err, ErrQuotaExceeded).
func (c *Client) Submit(spec JobSpec) (int64, error) {
	var reply SubmitReply
	if err := c.jt("Submit", SubmitArgs{Spec: spec}, &reply); err != nil {
		return 0, quotaErr(err)
	}
	return reply.JobID, nil
}

// quotaErr restores the typed ErrQuotaExceeded sentinel on an
// admission rejection that crossed the RPC boundary as a string (gob
// flattens handler errors into RemoteError messages). Other errors
// pass through untouched.
func quotaErr(err error) error {
	var re *rpcnet.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Msg, ErrQuotaExceeded.Error()) {
		// The remote message already leads with the sentinel text;
		// strip it so rewrapping doesn't print it twice.
		msg := strings.TrimPrefix(re.Msg, ErrQuotaExceeded.Error()+": ")
		return fmt.Errorf("%w: %s", ErrQuotaExceeded, msg)
	}
	return err
}

// Kill terminates a job mid-flight (or releases a finished streamed
// job's outputs). tenant, when non-empty, must match the job's tenant.
// Trackers purge the job's shuffle and spill state on their next
// heartbeats. Killing an already-finished job is not an error.
func (c *Client) Kill(jobID int64, tenant string) error {
	return c.jt("Kill", KillArgs{JobID: jobID, Tenant: tenant}, nil)
}

// ListJobs lists jobs known to the JobTracker in submission order —
// every tenant's when tenant is empty, one tenant's otherwise.
func (c *Client) ListJobs(tenant string) ([]JobInfo, error) {
	var reply ListJobsReply
	err := c.jt("ListJobs", ListJobsArgs{Tenant: tenant}, &reply)
	return reply.Jobs, err
}

// waitCallTimeout caps a single Status round-trip inside WaitStatus, so a
// hung JobTracker surfaces as call timeouts instead of blocking the
// client past its deadline. A Status reply is small — a structured
// kernel's reduced Result or a list of output locations, never bulk
// bytes — so the cap only has to clear maxStatusHold with room; the
// overall wait deadline (which always clamps the per-call timeout)
// stays the real bound against a hang.
const waitCallTimeout = dataCallTimeout

// WaitStatus blocks until the job completes or timeout passes,
// returning its terminal StatusReply: the reduced result bytes (or the
// output locations) plus the scheduler's attempt and per-tracker
// counts. It is a loop of held Status calls (StatusArgs.Hold): the
// JobTracker parks each one and answers on the job's terminal
// transition, so the wait ends one round-trip after the job does, with
// no client-side timer in between.
// A job that failed terminally (a task exhausted its attempt budget,
// the final reduce errored, or it was killed) returns that error on the
// same edge. Every call runs under a per-call timeout clamped to the
// remaining deadline, and asks to be held for at most half of it
// (never more than maxStatusHold): a parked call always answers well
// inside its own timeout, so a JobTracker that hangs mid-call is told
// apart and cannot block the wait beyond its deadline.
func (c *Client) WaitStatus(jobID int64, timeout time.Duration) (StatusReply, error) {
	deadline := time.Now().Add(timeout)
	jtc, err := c.wire.get(c.jtAddr)
	if err != nil {
		return StatusReply{}, err
	}
	var last StatusReply
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return last, fmt.Errorf("netmr: job %d timed out (%d/%d tasks done)",
				jobID, last.Completed, last.Total)
		}
		callTimeout := min(remaining, waitCallTimeout)
		args := StatusArgs{JobID: jobID, Hold: min(callTimeout/2, maxStatusHold)}
		var status StatusReply
		if err := jtc.CallTimeout("Status", args, &status, callTimeout); err != nil {
			if time.Now().After(deadline) {
				return last, fmt.Errorf("netmr: job %d timed out (%d/%d tasks done): %v",
					jobID, last.Completed, last.Total, err)
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// The call hit its own deadline. The connection survives —
				// the late reply is dropped by request ID — so just ask
				// again until the overall deadline decides.
				continue
			}
			return last, err
		}
		last = status
		if status.Err != "" {
			return status, errors.New(status.Err)
		}
		if status.Done {
			return status, nil
		}
	}
}

// outputChunkBytes is WaitOutput's fetch granularity: one chunk is
// resident at a time, so streaming a job's output costs O(chunk)
// client memory no matter how large the result is.
const outputChunkBytes = 1 << 20

// WaitOutput waits (WaitStatus) for a byte-stream kernel's job (sort,
// aes-ctr), then streams its result — the stored final-phase task
// outputs, concatenated in task order — into w, and releases the job so
// the stores can free the space. The result lives on the workers until
// this call collects it: a tracker lost after the job's terminal edge
// fails the collection with an error naming its store (a loss mid-job
// is repaired by re-running the tasks). Each piece is pulled in bounded
// chunks straight from the worker tracker's shuffle store: the client's
// peak memory is O(chunk) regardless of output size and the JobTracker
// never touches the output bytes. Returns the job's terminal status.
func (c *Client) WaitOutput(jobID int64, timeout time.Duration, w io.Writer) (StatusReply, error) {
	st, err := c.WaitStatus(jobID, timeout)
	if err != nil {
		return st, err
	}
	// Release whichever way the stream ends: a fetch or sink error
	// cannot be retried through this call anyway, and without the
	// release every tracker would hold the job's full output until
	// cluster shutdown. Killing a finished job is exactly that release.
	// Best effort — a failed release leaks store space, never
	// correctness.
	defer c.Kill(jobID, "")
	if len(st.Outputs) == 0 {
		return st, fmt.Errorf("netmr: job %d has no stored outputs: its kernel is structured and its result is StatusReply.Result", jobID)
	}
	for _, ref := range st.Outputs {
		if ref.Addr == "" {
			return st, fmt.Errorf("netmr: job %d output piece (%d,%d) has no location", jobID, ref.MapTask, ref.Part)
		}
		if err := c.streamOutputPiece(jobID, ref, w); err != nil {
			return st, fmt.Errorf("netmr: job %d stream output (%d,%d) from %s: %w",
				jobID, ref.MapTask, ref.Part, ref.Addr, err)
		}
	}
	return st, nil
}

// streamOutputPiece pulls one stored output piece in ranges of
// outputChunkBytes and writes each to w as it lands (an io.Writer keeps
// nothing it is handed, so the borrowed chunk needs no copy).
func (c *Client) streamOutputPiece(jobID int64, ref MapOutputRef, w io.Writer) error {
	for off := int64(0); ; {
		var rep FetchPartitionReply
		start := off
		err := c.wire.bulk(ref.Addr, "FetchPartition", FetchPartitionArgs{
			JobID: jobID, MapTask: ref.MapTask, Part: ref.Part,
			Offset: off, MaxBytes: outputChunkBytes,
		}, nil, &rep, func(chunk []byte) error {
			off += int64(len(chunk))
			_, err := w.Write(chunk)
			return err
		})
		if err != nil || off >= rep.Size || off == start {
			return err
		}
	}
}

// ListTrackers reports the JobTracker's live membership view: every
// registered TaskTracker with its device and lifecycle state.
func (c *Client) ListTrackers() ([]TrackerInfo, error) {
	var reply ListTrackersReply
	err := c.jt("ListTrackers", ListTrackersArgs{}, &reply)
	return reply.Trackers, err
}

// DecommissionTracker asks the JobTracker to drain the named tracker:
// no new work, in-flight tasks finish, held shuffle state stays
// fetchable until its jobs release it. The tracker process exits its
// loop once the drain completes.
func (c *Client) DecommissionTracker(id string) error {
	return c.jt("DecommissionTracker", DecommissionTrackerArgs{TrackerID: id}, nil)
}

// ListDataNodes reports the NameNode's live membership view: every
// registered DataNode with its lifecycle state and block count.
func (c *Client) ListDataNodes() ([]DataNodeInfo, error) {
	var reply ListDataNodesReply
	err := c.nn("ListDataNodes", ListDataNodesArgs{}, &reply)
	return reply.Nodes, err
}

// DecommissionDataNode asks the NameNode to drain the DataNode at
// addr: its blocks are re-replicated onto the survivors, then the node
// is dropped from placement and from every replica set. Returns once
// the repair pass completes — a whole pass of block transfers, so this
// one call runs under no timeout.
func (c *Client) DecommissionDataNode(addr string) error {
	nnc, err := c.wire.get(c.nnAddr)
	if err != nil {
		return err
	}
	return nnc.CallTimeout("DecommissionDN", DecommissionDNArgs{Addr: addr}, nil, 0)
}

// Status fetches a job's current state, including the scheduler's
// attempt total and per-tracker completion counts.
func (c *Client) Status(jobID int64) (StatusReply, error) {
	var status StatusReply
	err := c.jt("Status", StatusArgs{JobID: jobID}, &status)
	return status, err
}

// Cluster bundles an in-process netmr deployment: one NameNode, one
// JobTracker, n DataNodes and n TaskTrackers, all on loopback TCP.
// Membership is elastic after boot: AddWorker joins a fresh
// DataNode/TaskTracker pair at runtime, DecommissionWorker drains and
// retires one without losing data or in-flight work.
type Cluster struct {
	NN     *NameNode
	JT     *JobTracker
	DNs    []*DataNode
	TTs    []*TaskTracker
	Client *Client

	// cfg is the boot configuration, retained so AddWorker starts its
	// pair the way StartCluster started the others.
	cfg        Config
	nextWorker int

	mu sync.Mutex // guards DNs/TTs/nextWorker against concurrent membership changes
}

// StartCluster boots a full deployment of cfg.Workers worker pairs.
// The cluster's client cuts files at cfg.BlockSize and ingests through
// cfg's ingest window.
func StartCluster(cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("netmr: need at least one worker, got %d", cfg.Workers)
	}
	nn, err := StartNameNode("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nn.Replication = cfg.Replication
	jt, err := StartJobTracker("127.0.0.1:0", nn.Addr())
	if err != nil {
		nn.Close()
		return nil, err
	}
	// Scheduling knobs are applied before any tracker or client
	// exists, so no job can have been submitted yet.
	jt.Speculative = cfg.Speculative
	jt.MaxAttempts = cfg.MaxAttempts
	if cfg.TaskLease > 0 {
		jt.TaskLease = cfg.TaskLease
	}
	for tenant, q := range cfg.Quotas {
		jt.SetQuota(tenant, q)
	}
	if cfg.DeadAfter > 0 {
		nn.DeadAfter = cfg.DeadAfter
		jt.DeadAfter = cfg.DeadAfter
	}
	c := &Cluster{NN: nn, JT: jt, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		dn, tt, err := c.startWorker(i)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.DNs = append(c.DNs, dn)
		c.TTs = append(c.TTs, tt)
	}
	c.nextWorker = cfg.Workers
	client, err := NewClient(nn.Addr(), jt.Addr(), cfg.BlockSize)
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	client.ingestWindow = cfg.ingestWindow()
	c.Client = client
	return c, nil
}

// startWorker boots worker i's DataNode/TaskTracker pair from the
// cluster's Config. It performs network I/O (both daemons bind
// listeners and dial their masters), so callers must NOT hold the
// membership lock; the returned pair is appended to the roster by the
// caller.
func (c *Cluster) startWorker(i int) (*DataNode, *TaskTracker, error) {
	dn, err := StartDataNode("127.0.0.1:0", c.NN.Addr(), c.cfg)
	if err != nil {
		return nil, nil, err
	}
	tt, err := StartTaskTracker(fmt.Sprintf("tracker-%d", i), c.JT.Addr(), dn.Addr(), i, c.cfg)
	if err != nil {
		dn.Close()
		return nil, nil, err
	}
	return dn, tt, nil
}

// AddWorker joins one new DataNode/TaskTracker pair to the running
// cluster: the DataNode registers with the NameNode over its first
// heartbeat, the TaskTracker over its first JobTracker heartbeat — no
// master restart, no static wiring.
func (c *Cluster) AddWorker() (*DataNode, *TaskTracker, error) {
	// Claim the worker index under the lock, boot outside it (the pair
	// binds listeners and dials the masters), then publish the pair. A
	// failed boot burns the index.
	c.mu.Lock()
	i := c.nextWorker
	c.nextWorker++
	c.mu.Unlock()
	dn, tt, err := c.startWorker(i)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.DNs = append(c.DNs, dn)
	c.TTs = append(c.TTs, tt)
	c.mu.Unlock()
	return dn, tt, nil
}

// DecommissionWorker gracefully retires worker i (by roster position):
// the JobTracker drains its tracker — no new work, in-flight tasks
// finish, held shuffle state stays fetchable until the jobs release it
// — then the NameNode re-replicates the DataNode's blocks elsewhere
// before both daemons stop. Returns once the worker has left the
// cluster; jobs running across the drain complete with bit-identical
// results.
func (c *Cluster) DecommissionWorker(i int, timeout time.Duration) error {
	// Resolve the pair under the lock, run the drain — which waits on
	// the tracker and moves block replicas over the network — outside
	// it, then unpublish by identity (concurrent membership changes may
	// have shifted the index).
	c.mu.Lock()
	if i < 0 || i >= len(c.TTs) {
		c.mu.Unlock()
		return fmt.Errorf("netmr: no worker %d (have %d)", i, len(c.TTs))
	}
	tt, dn := c.TTs[i], c.DNs[i]
	c.mu.Unlock()
	if err := c.JT.DecommissionTracker(tt.ID); err != nil {
		return err
	}
	select {
	case <-tt.Drained():
	case <-time.After(timeout):
		return fmt.Errorf("netmr: tracker %s did not drain within %v", tt.ID, timeout)
	}
	tt.Stop()
	if err := c.NN.DecommissionDataNode(dn.Addr()); err != nil {
		return err
	}
	dn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for j := range c.TTs {
		if c.TTs[j] == tt {
			c.TTs = append(c.TTs[:j], c.TTs[j+1:]...)
			c.DNs = append(c.DNs[:j], c.DNs[j+1:]...)
			break
		}
	}
	return nil
}

// FetchTotals sums every live tracker's block-fetch locality counters:
// fetches served by the co-located DataNode, and by any other.
func (c *Cluster) FetchTotals() (local, remote int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tt := range c.TTs {
		l, r := tt.FetchStats()
		local += l
		remote += r
	}
	return local, remote
}

// Shutdown stops every daemon. Trackers stop concurrently: each
// graceful Stop may wait briefly for in-flight tasks, and those waits
// should overlap, not stack.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var wg sync.WaitGroup
	for _, tt := range c.TTs {
		wg.Add(1)
		go func(tt *TaskTracker) {
			defer wg.Done()
			tt.Stop()
		}(tt)
	}
	wg.Wait()
	for _, dn := range c.DNs {
		dn.Close()
	}
	if c.JT != nil {
		c.JT.Close()
	}
	if c.NN != nil {
		c.NN.Close()
	}
	if c.Client != nil {
		c.Client.Close()
	}
}
