package netmr

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"hetmr/internal/rpcnet"
)

// DefaultReplication is the block replica count when
// NameNode.Replication is zero: enough to survive one DataNode death
// without burning the small clusters the tests boot.
const DefaultReplication = 2

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
// node that misses DeadAfter is declared dead, its replicas are
// pruned, and its blocks are re-replicated onto the survivors. Replica
// placement and repair spread copies across racks, so losing a whole
// rack cannot take every copy of a block with it.
type NameNode struct {
	srv *rpcnet.Server

	// Replication is the desired replica count per block, capped by
	// the number of placeable DataNodes. Set it before the first
	// write; the zero value selects DefaultReplication.
	Replication int

	// DeadAfter is how long a DataNode may stay silent before the
	// liveness sweep declares it dead and re-replicates its blocks.
	// Zero disables dead-node detection (the pre-membership
	// behaviour: readers fail over, nothing repairs). Set before
	// DataNodes register.
	DeadAfter time.Duration

	mu        sync.Mutex
	nextBlock int64
	files     map[string][]BlockInfo
	nodes     *roster[dnState]
	// freed queues, per DataNode, the block replicas of deleted files
	// it still stores; the node's next Register reply carries them.
	freed     map[string][]int64
	repairing bool // one repair pass at a time

	sweeper *background
}

// StartNameNode launches the NameNode on addr ("127.0.0.1:0" for an
// ephemeral port).
func StartNameNode(addr string) (*NameNode, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	nn := &NameNode{
		srv:   srv,
		files: make(map[string][]BlockInfo),
		nodes: newRoster[dnState](),
		freed: make(map[string][]int64),
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

// Close stops the liveness sweep and the server.
func (nn *NameNode) Close() error {
	nn.sweeper.halt()
	return nn.srv.Close()
}

// want is the effective replication target. Callers hold nn.mu.
func (nn *NameNode) want() int {
	if nn.Replication > 0 {
		return nn.Replication
	}
	return DefaultReplication
}

// sweep is the liveness tick: it declares DataNodes that missed
// DeadAfter dead, prunes their replicas, and re-replicates any block
// left under target. All RPC work happens outside nn.mu.
func (nn *NameNode) sweep(now time.Time) {
	nn.mu.Lock()
	changed := len(nn.nodes.expire(now, nn.DeadAfter)) > 0
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
// least one replica, and keeps Racks parallel. Callers hold nn.mu.
func (nn *NameNode) pruneBlockLocked(blk *BlockInfo, gone func(*dnRow) bool) {
	addrs := blk.Replicas
	keptA := make([]string, 0, len(addrs))
	keptR := make([]string, 0, len(addrs))
	var dropped []*dnRow
	for i, addr := range addrs {
		d := nn.nodes.members[addr]
		if d != nil && gone(d) {
			dropped = append(dropped, d)
			continue
		}
		keptA = append(keptA, addr)
		keptR = append(keptR, nn.rackOfLocked(addr, blk.RackOfReplica(i)))
	}
	if len(keptA) == 0 {
		return // every home is gone: keep the list for a rejoin
	}
	for _, d := range dropped {
		d.info.load--
	}
	blk.Replicas, blk.Racks = keptA, keptR
}

// rackOfLocked resolves addr's current rack, falling back to the
// recorded one for nodes no longer known. Callers hold nn.mu.
func (nn *NameNode) rackOfLocked(addr, recorded string) string {
	if d := nn.nodes.members[addr]; d != nil {
		return d.rack
	}
	if recorded != "" {
		return recorded
	}
	return DefaultRack
}

// register is a DataNode's heartbeat: a dead node re-registering
// rejoins cleanly with its stored blocks counted again once
// re-confirmed, and the reply carries the replicas of deleted files the
// node may drop.
func (nn *NameNode) register(args RegisterArgs, now time.Time) (RegisterReply, error) {
	rack := args.Rack
	if rack == "" {
		rack = DefaultRack
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	d := nn.nodes.beat(args.Addr, rack, now)
	if d == nil {
		return RegisterReply{}, fmt.Errorf("netmr: datanode %s was decommissioned", args.Addr)
	}
	free := nn.freed[args.Addr]
	delete(nn.freed, args.Addr)
	return RegisterReply{Draining: d.draining, Free: free}, nil
}

// placeableNodes lists nodes new replicas may land on, in registration
// order. Callers hold nn.mu.
func (nn *NameNode) placeableNodes() []*dnRow {
	all := nn.nodes.list()
	return slices.DeleteFunc(all, func(d *dnRow) bool { return !d.placeable() })
}

// pickTarget chooses the next replica home among candidates not in
// have: first the least-loaded node on a rack the replica set misses
// (the HDFS rack-spread rule), then the least-loaded anywhere. Returns
// nil when every candidate already holds a copy. Callers hold nn.mu.
func pickTarget(candidates []*dnRow, have []string, haveRacks map[string]bool) *dnRow {
	var best *dnRow
	bestOffRack := false
	for _, d := range candidates {
		if slices.Contains(have, d.id) {
			continue
		}
		offRack := !haveRacks[d.rack]
		switch {
		case best == nil,
			offRack && !bestOffRack,
			offRack == bestOffRack && d.info.load < best.info.load:
			best, bestOffRack = d, offRack
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
		primary = pickTarget(candidates, nil, map[string]bool{})
	}
	// Secondary replicas spread across racks: each pick prefers a rack
	// the replica set does not cover yet, so a dead node — or a dead
	// rack — never takes the only copy of a block with it.
	replicas := []string{primary.id}
	racks := []string{primary.rack}
	haveRacks := map[string]bool{primary.rack: true}
	for want := min(nn.want(), len(candidates)); len(replicas) < want; {
		d := pickTarget(candidates, replicas, haveRacks)
		if d == nil {
			break
		}
		replicas = append(replicas, d.id)
		racks = append(racks, d.rack)
		haveRacks[d.rack] = true
	}
	blk := BlockInfo{ID: nn.nextBlock, Size: args.Size, Replicas: replicas, Racks: racks}
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
		blocks[i].Racks = make([]string, len(args.Replicas))
		for j, addr := range args.Replicas {
			blocks[i].Racks[j] = nn.rackOfLocked(addr, "")
		}
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
// least-loaded placeable nodes, racks the replica set misses first.
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
			haveRacks := make(map[string]bool)
			healthy := 0
			for i, addr := range blk.Replicas {
				d := nn.nodes.members[addr]
				if d == nil || d.dead {
					continue
				}
				if served == "" {
					served = addr
				}
				if d.placeable() {
					healthy++
					haveRacks[nn.rackOfLocked(addr, blk.RackOfReplica(i))] = true
				}
			}
			if served == "" {
				continue // no live source: nothing to copy from
			}
			for want := min(nn.want(), len(candidates)); healthy < want; {
				d := pickTarget(candidates, have, haveRacks)
				if d == nil {
					break
				}
				ops = append(ops, repairOp{file: f, id: blk.ID, src: served, dst: d.id})
				have = append(have, d.id)
				haveRacks[d.rack] = true
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
		blocks[i].Racks = append(blocks[i].Racks, nn.rackOfLocked(op.dst, ""))
		if d := nn.nodes.members[op.dst]; d != nil {
			d.info.load++
		}
		return true
	}
	nn.freed[op.dst] = append(nn.freed[op.dst], op.id)
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
	// a home elsewhere (racks the set misses first).
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
			Addr: d.id, Rack: d.rack, State: d.state(), Blocks: d.info.load,
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
				nn.freed[addr] = append(nn.freed[addr], blk.ID)
			}
		}
	}
	delete(nn.files, args.File)
	return DeleteReply{}, nil
}
