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

// Node lifecycle states, shared by the NameNode's DataNode view and
// the JobTracker's tracker view.
const (
	// NodeAlive is a member heartbeating normally.
	NodeAlive = "alive"
	// NodeDraining is a member being decommissioned: it keeps serving
	// but receives no new placements or tasks.
	NodeDraining = "draining"
	// NodeDead is a member that missed its liveness deadline; it
	// rejoins as alive on its next heartbeat.
	NodeDead = "dead"
)

// dnState is one DataNode's row in the NameNode's membership view.
type dnState struct {
	addr     string
	rack     string
	load     int // block replicas placed here
	lastSeen time.Time
	draining bool
	dead     bool
}

func (d *dnState) state() string {
	switch {
	case d.dead:
		return NodeDead
	case d.draining:
		return NodeDraining
	default:
		return NodeAlive
	}
}

// placeable reports whether new replicas may land on the node.
func (d *dnState) placeable() bool { return !d.dead && !d.draining }

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
	nodes     map[string]*dnState
	order     []string // registration order, for deterministic placement
	// freed queues, per DataNode, the block replicas of deleted files
	// it still stores; the node's next Register reply carries them.
	freed map[string][]int64
	// retired holds decommissioned addresses: their Register beats are
	// refused, or a retired node still running would rejoin on its next
	// beat, empty, moments after its blocks were moved off it.
	retired   map[string]bool
	repairing bool // one repair pass at a time

	stop chan struct{}
	done chan struct{}
}

// StartNameNode launches the NameNode on addr ("127.0.0.1:0" for an
// ephemeral port).
func StartNameNode(addr string) (*NameNode, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	nn := &NameNode{
		srv:     srv,
		files:   make(map[string][]BlockInfo),
		nodes:   make(map[string]*dnState),
		freed:   make(map[string][]int64),
		retired: make(map[string]bool),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	srv.Handle("Register", nn.handleRegister)
	srv.Handle("Allocate", nn.handleAllocate)
	srv.Handle("Confirm", nn.handleConfirm)
	srv.Handle("Lookup", nn.handleLookup)
	srv.Handle("List", nn.handleList)
	srv.Handle("Delete", nn.handleDelete)
	srv.Handle("DecommissionDN", nn.handleDecommissionDN)
	srv.Handle("ListDataNodes", nn.handleListDataNodes)
	go nn.sweep()
	return nn, nil
}

// Addr returns the NameNode's RPC address.
func (nn *NameNode) Addr() string { return nn.srv.Addr() }

// Close stops the liveness sweep and the server.
func (nn *NameNode) Close() error {
	nn.mu.Lock()
	select {
	case <-nn.stop:
	default:
		close(nn.stop)
	}
	nn.mu.Unlock()
	<-nn.done
	return nn.srv.Close()
}

// want is the effective replication target. Callers hold nn.mu.
func (nn *NameNode) want() int {
	if nn.Replication > 0 {
		return nn.Replication
	}
	return DefaultReplication
}

// sweepInterval paces the liveness sweep; fine-grained enough for the
// millisecond heartbeats tests run, cheap enough to always tick.
const sweepInterval = 20 * time.Millisecond

// sweep is the liveness loop: every tick it declares DataNodes that
// missed DeadAfter dead, prunes their replicas, and re-replicates any
// block left under target. All RPC work happens outside nn.mu.
func (nn *NameNode) sweep() {
	defer close(nn.done)
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-nn.stop:
			return
		case <-ticker.C:
		}
		nn.mu.Lock()
		changed := false
		if nn.DeadAfter > 0 {
			now := time.Now()
			for _, d := range nn.nodes {
				if !d.dead && now.Sub(d.lastSeen) > nn.DeadAfter {
					d.dead = true
					changed = true
				}
			}
		}
		if changed {
			nn.pruneUnservedLocked()
		}
		nn.mu.Unlock()
		if changed {
			nn.Repair()
		}
	}
}

// pruneUnservedLocked drops dead nodes from every replica list (a dead
// replica is never the only one pruned away: a block whose every home
// is dead keeps its list so a rejoin can resurrect it). Callers hold
// nn.mu.
func (nn *NameNode) pruneUnservedLocked() {
	for _, blocks := range nn.files {
		for i := range blocks {
			nn.pruneBlockLocked(&blocks[i], func(d *dnState) bool { return d.dead })
		}
	}
}

// pruneBlockLocked removes replicas matching gone from blk, keeping at
// least one replica, and keeps Racks parallel. Callers hold nn.mu.
func (nn *NameNode) pruneBlockLocked(blk *BlockInfo, gone func(*dnState) bool) {
	addrs := blk.Replicas
	keptA := make([]string, 0, len(addrs))
	keptR := make([]string, 0, len(addrs))
	var dropped []*dnState
	for i, addr := range addrs {
		d := nn.nodes[addr]
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
		d.load--
	}
	blk.Replicas, blk.Racks = keptA, keptR
}

// rackOfLocked resolves addr's current rack, falling back to the
// recorded one for nodes no longer known. Callers hold nn.mu.
func (nn *NameNode) rackOfLocked(addr, recorded string) string {
	if d := nn.nodes[addr]; d != nil {
		return d.rack
	}
	if recorded != "" {
		return recorded
	}
	return DefaultRack
}

func (nn *NameNode) handleRegister(body []byte) (any, error) {
	var args RegisterArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	rack := args.Rack
	if rack == "" {
		rack = DefaultRack
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if nn.retired[args.Addr] {
		return nil, fmt.Errorf("netmr: datanode %s was decommissioned", args.Addr)
	}
	d := nn.nodes[args.Addr]
	if d == nil {
		d = &dnState{addr: args.Addr, rack: rack}
		nn.nodes[args.Addr] = d
		nn.order = append(nn.order, args.Addr)
	}
	// Heartbeat refresh: a dead node re-registering rejoins cleanly
	// with its stored blocks counted again once re-confirmed; rack
	// moves (a re-racked rejoin) are honoured.
	d.rack = rack
	d.lastSeen = time.Now()
	d.dead = false
	free := nn.freed[args.Addr]
	delete(nn.freed, args.Addr)
	return RegisterReply{Draining: d.draining, Free: free}, nil
}

// placeableNodes lists nodes new replicas may land on, in registration
// order. Callers hold nn.mu.
func (nn *NameNode) placeableNodes() []*dnState {
	out := make([]*dnState, 0, len(nn.order))
	for _, addr := range nn.order {
		if d := nn.nodes[addr]; d != nil && d.placeable() {
			out = append(out, d)
		}
	}
	return out
}

// pickTarget chooses the next replica home among candidates not in
// have: first the least-loaded node on a rack the replica set misses
// (the HDFS rack-spread rule), then the least-loaded anywhere. Returns
// nil when every candidate already holds a copy. Callers hold nn.mu.
func pickTarget(candidates []*dnState, have []string, haveRacks map[string]bool) *dnState {
	var best *dnState
	bestOffRack := false
	for _, d := range candidates {
		if slices.Contains(have, d.addr) {
			continue
		}
		offRack := !haveRacks[d.rack]
		switch {
		case best == nil,
			offRack && !bestOffRack,
			offRack == bestOffRack && d.load < best.load:
			best, bestOffRack = d, offRack
		}
	}
	return best
}

func (nn *NameNode) handleAllocate(body []byte) (any, error) {
	var args AllocateArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	candidates := nn.placeableNodes()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("netmr: no datanodes registered")
	}
	// Primary placement: writer locality first, then least-loaded.
	var primary *dnState
	if args.Preferred != "" {
		for _, d := range candidates {
			if d.addr == args.Preferred {
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
	replicas := []string{primary.addr}
	racks := []string{primary.rack}
	haveRacks := map[string]bool{primary.rack: true}
	want := nn.want()
	if want > len(candidates) {
		want = len(candidates)
	}
	for len(replicas) < want {
		d := pickTarget(candidates, replicas, haveRacks)
		if d == nil {
			break
		}
		replicas = append(replicas, d.addr)
		racks = append(racks, d.rack)
		haveRacks[d.rack] = true
	}
	blk := BlockInfo{ID: nn.nextBlock, Size: args.Size, Replicas: replicas, Racks: racks}
	nn.nextBlock++
	for _, addr := range replicas {
		nn.nodes[addr].load++
	}
	nn.files[args.File] = append(nn.files[args.File], blk)
	return AllocateReply{Block: blk}, nil
}

// handleConfirm records which replicas of a freshly allocated block
// the writer actually stored: placement targets that were down at
// write time are pruned, so readers never chase a replica that was
// never written. The liveness sweep's repair pass restores the lost
// copies later.
func (nn *NameNode) handleConfirm(body []byte) (any, error) {
	var args ConfirmArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	if len(args.Replicas) == 0 {
		return nil, fmt.Errorf("netmr: confirm of block %d with no replicas", args.BlockID)
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
				if d := nn.nodes[addr]; d != nil {
					d.load--
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
	return nil, fmt.Errorf("netmr: confirm of unknown block %d in %q", args.BlockID, args.File)
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
				d := nn.nodes[addr]
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
			want := nn.want()
			if want > len(candidates) {
				want = len(candidates)
			}
			for healthy < want {
				d := pickTarget(candidates, have, haveRacks)
				if d == nil {
					break
				}
				ops = append(ops, repairOp{file: f, id: blk.ID, src: served, dst: d.addr})
				have = append(have, d.addr)
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
		if d := nn.nodes[op.dst]; d != nil {
			d.load++
		}
		return true
	}
	nn.freed[op.dst] = append(nn.freed[op.dst], op.id)
	return false
}

// handleDecommissionDN gracefully retires a DataNode: it is marked
// draining (no new placements), every block it serves is re-replicated
// until the survivors alone meet the replication target, and only then
// is it dropped from the replica lists and the membership view. The
// node keeps serving reads throughout, so the cluster never dips below
// its pre-decommission redundancy.
func (nn *NameNode) handleDecommissionDN(body []byte) (any, error) {
	var args DecommissionDNArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	if err := nn.DecommissionDataNode(args.Addr); err != nil {
		return nil, err
	}
	return DecommissionDNReply{}, nil
}

// DecommissionDataNode is the in-process form of the DecommissionDN
// RPC. It blocks until the node's blocks are re-replicated and the
// node is removed from the membership view.
func (nn *NameNode) DecommissionDataNode(addr string) error {
	nn.mu.Lock()
	d := nn.nodes[addr]
	if d == nil {
		nn.mu.Unlock()
		return fmt.Errorf("netmr: unknown datanode %q", addr)
	}
	d.draining = true
	nn.mu.Unlock()

	// Restore the replication target without the draining node: its
	// copies no longer count as healthy, so every block it holds gains
	// a home elsewhere (racks the set misses first).
	nn.Repair()

	nn.mu.Lock()
	defer nn.mu.Unlock()
	for _, blocks := range nn.files {
		for i := range blocks {
			nn.pruneBlockLocked(&blocks[i], func(n *dnState) bool { return n.addr == addr })
		}
	}
	delete(nn.nodes, addr)
	delete(nn.freed, addr)
	nn.retired[addr] = true
	nn.order = slices.DeleteFunc(nn.order, func(a string) bool { return a == addr })
	return nil
}

// handleListDataNodes reports the membership view.
func (nn *NameNode) handleListDataNodes(body []byte) (any, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var reply ListDataNodesReply
	for _, addr := range nn.order {
		d := nn.nodes[addr]
		if d == nil {
			continue
		}
		reply.Nodes = append(reply.Nodes, DataNodeInfo{
			Addr: d.addr, Rack: d.rack, State: d.state(), Blocks: d.load,
		})
	}
	return reply, nil
}

func (nn *NameNode) handleLookup(body []byte) (any, error) {
	var args LookupArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	blocks, ok := nn.files[args.File]
	if !ok {
		return nil, fmt.Errorf("netmr: file %q not found", args.File)
	}
	out := make([]BlockInfo, len(blocks))
	copy(out, blocks)
	return LookupReply{Blocks: out}, nil
}

func (nn *NameNode) handleList(body []byte) (any, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var names []string
	for f := range nn.files {
		names = append(names, f)
	}
	sort.Strings(names)
	return ListReply{Files: names}, nil
}

func (nn *NameNode) handleDelete(body []byte) (any, error) {
	var args DeleteArgs
	if err := rpcnet.Unmarshal(body, &args); err != nil {
		return nil, err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[args.File]; !ok {
		return nil, fmt.Errorf("netmr: file %q not found", args.File)
	}
	for _, blk := range nn.files[args.File] {
		for _, addr := range blk.Replicas {
			if d := nn.nodes[addr]; d != nil {
				d.load--
				nn.freed[addr] = append(nn.freed[addr], blk.ID)
			}
		}
	}
	delete(nn.files, args.File)
	return DeleteReply{}, nil
}
