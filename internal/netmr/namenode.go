package netmr

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hetmr/internal/rpcnet"
)

// dnState is the NameNode's own column of a DataNode's membership row.
type dnState struct {
	load int // block replicas placed here
}

// dnRow is one DataNode's row in the NameNode's roster, keyed by its
// RPC address.
type dnRow = member[dnState]

// NameNode is the TCP metadata master: namespace, block placement, and
// the authoritative DataNode membership view. DataNodes join over
// their first Register heartbeat and stay alive by repeating it; a
// node that misses Config.DeadAfter is declared dead, its replicas are
// pruned, and its blocks are re-replicated onto the survivors. Replica
// placement and repair put each copy of a block on a distinct node.
type NameNode struct {
	srv *rpcnet.Server
	// replication is the replica target per block, capped by the
	// number of placeable DataNodes; deadAfter is Config.DeadAfter
	// (zero: no sweep — readers fail over, nothing repairs).
	replication int
	deadAfter   time.Duration

	mu        sync.Mutex
	nextBlock int64
	files     map[string][]BlockInfo
	nodes     *roster[dnState]
	// freed queues, per DataNode, the block replicas of deleted files
	// it still stores. Every Register reply carries the node's queue,
	// and an ID leaves it only when a later beat acknowledges it.
	freed map[string][]int64
	// parked wakes, per DataNode, its held beat (RegisterArgs.Hold)
	// when a free is queued for it.
	parked    map[string]chan struct{}
	repairing bool // one repair pass at a time

	sweeper *background
}

// StartNameNode launches the NameNode on addr ("127.0.0.1:0" for an
// ephemeral port). Of cfg it reads Replication and DeadAfter.
func StartNameNode(addr string, cfg Config) (*NameNode, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	nn := &NameNode{
		srv:         srv,
		replication: cfg.replication(),
		deadAfter:   cfg.DeadAfter,
		files:       make(map[string][]BlockInfo),
		nodes:       newRoster[dnState](),
		freed:       make(map[string][]int64),
		parked:      make(map[string]chan struct{}),
	}
	nn.sweeper = every(sweepInterval, nn.sweep)
	handle(srv, "Register", func(args RegisterArgs) (RegisterReply, error) {
		return nn.register(args, time.Now())
	})
	handle(srv, "Allocate", nn.handleAllocate)
	handle(srv, "Confirm", nn.handleConfirm)
	handle(srv, "Lookup", nn.handleLookup)
	handle(srv, "List", nn.handleList)
	handle(srv, "Delete", nn.handleDelete)
	handle(srv, "DecommissionDN", func(args DecommissionDNArgs) (DecommissionDNReply, error) {
		return DecommissionDNReply{}, nn.DecommissionDataNode(args.Addr)
	})
	handle(srv, "ListDataNodes", nn.handleListDataNodes)
	return nn, nil
}

// Addr returns the NameNode's RPC address.
func (nn *NameNode) Addr() string { return nn.srv.Addr() }

// Close stops the liveness sweep, which answers every held beat, and
// the server.
func (nn *NameNode) Close() error {
	nn.sweeper.halt()
	return nn.srv.Close()
}

// sweep is the liveness tick: it declares DataNodes that missed
// deadAfter dead, prunes their replicas, and re-replicates any block
// left under target. All RPC work happens outside nn.mu.
func (nn *NameNode) sweep(now time.Time) {
	nn.mu.Lock()
	changed := len(nn.nodes.expire(now, nn.deadAfter)) > 0
	if changed {
		// A dead replica is never the only one pruned away: a block
		// whose every home is dead keeps its list so a rejoin can
		// resurrect it.
		nn.pruneLocked(func(d *dnRow) bool { return d.dead })
	}
	nn.mu.Unlock()
	if changed {
		nn.Repair()
	}
}

// pruneLocked drops the nodes matching gone from every replica list.
// Callers hold nn.mu.
func (nn *NameNode) pruneLocked(gone func(*dnRow) bool) {
	for _, blocks := range nn.files {
		for i := range blocks {
			nn.pruneBlockLocked(&blocks[i], gone)
		}
	}
}

// pruneBlockLocked removes replicas matching gone from blk, keeping at
// least one replica. Callers hold nn.mu.
func (nn *NameNode) pruneBlockLocked(blk *BlockInfo, gone func(*dnRow) bool) {
	kept := make([]string, 0, len(blk.Replicas))
	var dropped []*dnRow
	for _, addr := range blk.Replicas {
		d := nn.nodes.members[addr]
		if d != nil && gone(d) {
			dropped = append(dropped, d)
			continue
		}
		kept = append(kept, addr)
	}
	if len(kept) == 0 {
		return // every home is gone: keep the list for a rejoin
	}
	for _, d := range dropped {
		d.info.load--
	}
	blk.Replicas = kept
}

// register is a DataNode's heartbeat: a dead node re-registering
// rejoins cleanly with its stored blocks counted again once
// re-confirmed. The beat's Freed forgets what the node acknowledged
// dropping, and the reply names every replica of a deleted file still
// queued for it — again, if an earlier reply was lost. A member's beat
// with nothing queued and a Hold is parked (nn.mu released) until a
// free is queued for the node, the capped hold expires or Close, and
// refreshes the node's liveness again as it returns.
func (nn *NameNode) register(args RegisterArgs, now time.Time) (RegisterReply, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	joining := nn.nodes.members[args.Addr] == nil
	d := nn.nodes.beat(args.Addr, now)
	if d == nil {
		return RegisterReply{}, fmt.Errorf("netmr: datanode %s was decommissioned", args.Addr)
	}
	queue := slices.DeleteFunc(nn.freed[args.Addr], func(id int64) bool {
		return slices.Contains(args.Freed, id)
	})
	if len(queue) == 0 {
		delete(nn.freed, args.Addr)
	} else {
		nn.freed[args.Addr] = queue
	}
	if len(queue) == 0 && args.Hold > 0 && !joining {
		wake := make(chan struct{})
		nn.parked[args.Addr] = wake
		park(&nn.mu, args.Hold, wake, nn.sweeper.stop)
		if nn.parked[args.Addr] == wake {
			delete(nn.parked, args.Addr)
		}
		if d = nn.nodes.beat(args.Addr, time.Now()); d == nil {
			return RegisterReply{}, fmt.Errorf("netmr: datanode %s was decommissioned", args.Addr)
		}
		queue = nn.freed[args.Addr]
	}
	return RegisterReply{Draining: d.draining, Free: slices.Clone(queue)}, nil
}

// queueFreeLocked queues block id for addr to drop and answers the
// node's held beat. Callers hold nn.mu.
func (nn *NameNode) queueFreeLocked(addr string, id int64) {
	nn.freed[addr] = append(nn.freed[addr], id)
	if wake := nn.parked[addr]; wake != nil {
		close(wake)
		delete(nn.parked, addr)
	}
}

// placeableNodes lists nodes new replicas may land on, in registration
// order. Callers hold nn.mu.
func (nn *NameNode) placeableNodes() []*dnRow {
	all := nn.nodes.list()
	return slices.DeleteFunc(all, func(d *dnRow) bool { return !d.placeable() })
}

// pickTarget chooses the next replica home: the least-loaded candidate
// not in have, the first of equals in candidate order. Returns nil when
// every candidate already holds a copy. Callers hold nn.mu.
func pickTarget(candidates []*dnRow, have []string) *dnRow {
	var best *dnRow
	for _, d := range candidates {
		if !slices.Contains(have, d.id) && (best == nil || d.info.load < best.info.load) {
			best = d
		}
	}
	return best
}

func (nn *NameNode) handleAllocate(args AllocateArgs) (AllocateReply, error) {
	// Readers size their buffers from the recorded block size, so it
	// has to be one a block can have: it travels as one frame's tail.
	if args.Size < 0 || args.Size > rpcnet.MaxFrame {
		return AllocateReply{}, fmt.Errorf("netmr: block size %d outside [0, %d]", args.Size, rpcnet.MaxFrame)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	candidates := nn.placeableNodes()
	if len(candidates) == 0 {
		return AllocateReply{}, fmt.Errorf("netmr: no datanodes registered")
	}
	// Primary placement: writer locality first, then least-loaded.
	var primary *dnRow
	if args.Preferred != "" {
		for _, d := range candidates {
			if d.id == args.Preferred {
				primary = d
				break
			}
		}
	}
	if primary == nil {
		primary = pickTarget(candidates, nil)
	}
	// Secondary replicas go to the least-loaded other nodes, so a dead
	// node never takes the only copy of a block with it.
	replicas := []string{primary.id}
	for want := min(nn.replication, len(candidates)); len(replicas) < want; {
		d := pickTarget(candidates, replicas)
		if d == nil {
			break
		}
		replicas = append(replicas, d.id)
	}
	blk := BlockInfo{ID: nn.nextBlock, Size: args.Size, Replicas: replicas}
	nn.nextBlock++
	for _, addr := range replicas {
		nn.nodes.members[addr].info.load++
	}
	nn.files[args.File] = append(nn.files[args.File], blk)
	return AllocateReply{Block: blk}, nil
}

// handleConfirm records which replicas of a freshly allocated block
// the writer actually stored: placement targets that were down at
// write time are pruned, so readers never chase a replica that was
// never written. The liveness sweep's repair pass restores the lost
// copies later.
func (nn *NameNode) handleConfirm(args ConfirmArgs) (ConfirmReply, error) {
	if len(args.Replicas) == 0 {
		return ConfirmReply{}, fmt.Errorf("netmr: confirm of block %d with no replicas", args.BlockID)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	blocks := nn.files[args.File]
	for i := range blocks {
		if blocks[i].ID != args.BlockID {
			continue
		}
		for _, addr := range blocks[i].Replicas {
			if !slices.Contains(args.Replicas, addr) {
				if d := nn.nodes.members[addr]; d != nil {
					d.info.load--
				}
			}
		}
		blocks[i].Replicas = append([]string(nil), args.Replicas...)
		return ConfirmReply{}, nil
	}
	return ConfirmReply{}, fmt.Errorf("netmr: confirm of unknown block %d in %q", args.BlockID, args.File)
}

// repairOp is one planned re-replication: src pushes block id of file
// to dst.
type repairOp struct {
	file string
	id   int64
	src  string
	dst  string
}

// Repair runs one re-replication pass: every block whose serving
// replica count sits below the replication target gains copies on the
// least-loaded placeable nodes.
// The plan is computed under nn.mu; the block transfers are DataNode→
// DataNode Replicate RPCs issued with the lock released, and each
// success commits back under the lock. It returns the number of
// replicas restored and is safe to call concurrently (one pass runs at
// a time; extra calls return immediately).
func (nn *NameNode) Repair() int {
	nn.mu.Lock()
	if nn.repairing {
		nn.mu.Unlock()
		return 0
	}
	nn.repairing = true
	ops := nn.planRepairsLocked()
	nn.mu.Unlock()

	restored := 0
	for _, op := range ops {
		if nn.replicate(op) {
			restored++
		}
	}
	nn.mu.Lock()
	nn.repairing = false
	nn.mu.Unlock()
	return restored
}

// planRepairsLocked builds the re-replication plan: one op per missing
// replica. Sources may be draining nodes (they still serve); targets
// are placeable only. Callers hold nn.mu.
func (nn *NameNode) planRepairsLocked() []repairOp {
	candidates := nn.placeableNodes()
	if len(candidates) == 0 {
		return nil
	}
	var ops []repairOp
	files := make([]string, 0, len(nn.files))
	for f := range nn.files {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for _, blk := range nn.files[f] {
			served := ""
			have := append([]string(nil), blk.Replicas...)
			healthy := 0
			for _, addr := range blk.Replicas {
				d := nn.nodes.members[addr]
				if d == nil || d.dead {
					continue
				}
				if served == "" {
					served = addr
				}
				if d.placeable() {
					healthy++
				}
			}
			if served == "" {
				continue // no live source: nothing to copy from
			}
			for want := min(nn.replication, len(candidates)); healthy < want; {
				d := pickTarget(candidates, have)
				if d == nil {
					break
				}
				ops = append(ops, repairOp{file: f, id: blk.ID, src: served, dst: d.id})
				have = append(have, d.id)
				healthy++
			}
		}
	}
	return ops
}

// replicate executes one planned transfer — dial the source, have it
// push the block — and commits the new replica to the block's metadata
// on success. Runs without nn.mu held; the commit step re-validates
// against concurrent deletes (the copy of a block deleted meanwhile is
// queued to be freed again).
func (nn *NameNode) replicate(op repairOp) bool {
	src, err := rpcnet.Dial(op.src)
	if err != nil {
		return false
	}
	defer src.Close()
	err = src.CallTimeout("Replicate", ReplicateArgs{ID: op.id, Target: op.dst}, nil, dataCallTimeout)
	if err != nil {
		return false
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	blocks := nn.files[op.file]
	for i := range blocks {
		if blocks[i].ID != op.id {
			continue
		}
		if slices.Contains(blocks[i].Replicas, op.dst) {
			return false // raced with another pass
		}
		blocks[i].Replicas = append(blocks[i].Replicas, op.dst)
		if d := nn.nodes.members[op.dst]; d != nil {
			d.info.load++
		}
		return true
	}
	nn.queueFreeLocked(op.dst, op.id)
	return false
}

// DecommissionDataNode gracefully retires a DataNode: it is marked
// draining (no new placements), every block it serves is re-replicated
// until the survivors alone meet the replication target, and only then
// is it dropped from the replica lists and the membership view. The
// node keeps serving reads throughout, so the cluster never dips below
// its pre-decommission redundancy. It blocks until the node is gone.
func (nn *NameNode) DecommissionDataNode(addr string) error {
	nn.mu.Lock()
	d := nn.nodes.drain(addr)
	nn.mu.Unlock()
	if d == nil {
		return fmt.Errorf("netmr: unknown datanode %q", addr)
	}

	// Restore the replication target without the draining node: its
	// copies no longer count as healthy, so every block it holds gains
	// a home elsewhere.
	nn.Repair()

	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.pruneLocked(func(n *dnRow) bool { return n == d })
	nn.nodes.retire(addr)
	delete(nn.freed, addr)
	return nil
}

// handleListDataNodes reports the membership view, in registration order.
func (nn *NameNode) handleListDataNodes(ListDataNodesArgs) (ListDataNodesReply, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var reply ListDataNodesReply
	for _, d := range nn.nodes.list() {
		reply.Nodes = append(reply.Nodes, DataNodeInfo{
			Addr: d.id, State: d.state(), Blocks: d.info.load,
		})
	}
	return reply, nil
}

func (nn *NameNode) handleLookup(args LookupArgs) (LookupReply, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	blocks, ok := nn.files[args.File]
	if !ok {
		return LookupReply{}, fmt.Errorf("netmr: file %q not found", args.File)
	}
	return LookupReply{Blocks: slices.Clone(blocks)}, nil
}

func (nn *NameNode) handleList(ListArgs) (ListReply, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var names []string
	for f := range nn.files {
		names = append(names, f)
	}
	sort.Strings(names)
	return ListReply{Files: names}, nil
}

func (nn *NameNode) handleDelete(args DeleteArgs) (DeleteReply, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[args.File]; !ok {
		return DeleteReply{}, fmt.Errorf("netmr: file %q not found", args.File)
	}
	for _, blk := range nn.files[args.File] {
		for _, addr := range blk.Replicas {
			if d := nn.nodes.members[addr]; d != nil {
				d.info.load--
				nn.queueFreeLocked(addr, blk.ID)
			}
		}
	}
	delete(nn.files, args.File)
	return DeleteReply{}, nil
}
