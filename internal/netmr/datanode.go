package netmr

import (
	"bytes"
	"fmt"
	"time"

	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

// DataNode is a TCP block server: it stores block replicas and serves
// them to TaskTrackers — the hop the paper's RecordReader measurement
// is about. Blocks live in a spill store: all in memory by default,
// bounded by a watermark (the rest on disk) when Config.SpillMem sets
// one — the path that lets a cluster hold datasets larger than its
// RAM.
//
// Membership is dynamic: the node joins the NameNode over its first
// Register heartbeat and repeats the beat, which the NameNode holds
// until it has blocks for the node to free or a beat interval passes,
// so the NameNode keeps an authoritative liveness view, can
// re-replicate the node's blocks when it goes silent, and hands it
// frees at once. The Replicate RPC is the repair path's data mover:
// the NameNode plans a copy, this node pushes the block straight to the
// target peer.
type DataNode struct {
	srv   *rpcnet.Server
	store *spill.Store[int64]
	// wire caches the pooled connections this node calls out on: the
	// NameNode for beats, peer DataNodes for Replicate pushes.
	wire *connCache

	nnAddr string
	// freed is the Free list of the last answered beat: dropped from
	// the store, and acknowledged on every beat until one is answered.
	// Only the beat loop touches it.
	freed []int64

	beater *background
}

// StartDataNode launches a DataNode on addr with cfg's beat interval
// and block store, and registers it with the NameNode over its first
// heartbeat; the beat then repeats until Close. No DataNode setting is
// per-worker.
func StartDataNode(addr, nameNodeAddr string, cfg Config) (*DataNode, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	dn := &DataNode{
		srv:    srv,
		store:  spill.New[int64](cfg.SpillDir, cfg.SpillMem),
		nnAddr: nameNodeAddr,
		wire:   newConnCache(),
	}
	// A block's buffer is the Put's frame buffer, kept: the store hands
	// it back to the pool once it spills it or, after every reply that
	// lends it is written, drops it.
	dn.store.OnRelease(rpcnet.Recycle)
	// The beat is this cache's control-plane call: a NameNode that goes
	// mute must cost a missed beat, not wedge the loop (and Close behind
	// it). Block pushes to peers pass their own, longer timeout.
	dn.wire.timeout = heartbeatCallTimeout
	handleTail(srv, "Put", dn.handlePut)
	handleTail(srv, "Get", dn.handleGet)
	handle(srv, "Replicate", dn.handleReplicate)
	// First beat synchronously: callers may allocate right after
	// StartDataNode returns, so the node must already be a member.
	if err := dn.beat(0); err != nil {
		srv.Close()
		dn.wire.close()
		dn.store.Close()
		return nil, err
	}
	// Held beats run back to back from here: one answered with frees is
	// acknowledged by the next at once, a held one lasts about the tick,
	// and a missed one (NameNode briefly unreachable) waits for it.
	hold := min(cfg.heartbeat(), heartbeatCallTimeout/2)
	dn.beater = every(cfg.heartbeat(), func(time.Time) {
		for dn.beat(hold) == nil && len(dn.freed) > 0 {
		}
	})
	return dn, nil
}

// beat sends one Register heartbeat, acknowledging the frees of the
// last answered one, and drops the blocks of deleted files its reply
// names. The NameNode may hold a beat with nothing to free for up to
// hold, answering it as a delete queues a free, so a free lands within
// a round trip. A lost reply leaves the acknowledgement standing, and
// the NameNode names the unacknowledged IDs again: deletes are
// idempotent.
func (dn *DataNode) beat(hold time.Duration) error {
	var reply RegisterReply
	args := RegisterArgs{Addr: dn.srv.Addr(), Freed: dn.freed, Hold: hold}
	if err := dn.wire.call(dn.nnAddr, "Register", args, &reply); err != nil {
		return err
	}
	for _, id := range reply.Free {
		dn.store.Delete(id)
	}
	dn.freed = reply.Free
	return nil
}

// Addr returns the DataNode's RPC address.
func (dn *DataNode) Addr() string { return dn.srv.Addr() }

// Close stops the heartbeat loop and the server, and releases any
// spill files. Idempotent. The connections close first, failing a beat
// the NameNode holds, so the loop stops without waiting out the hold.
func (dn *DataNode) Close() error {
	dn.wire.close()
	dn.beater.halt()
	err := dn.srv.Close()
	if serr := dn.store.Close(); err == nil {
		err = serr
	}
	return err
}

// BlockCount reports stored replicas (for tests).
func (dn *DataNode) BlockCount() int { return dn.store.Len() }

// SpilledBytes reports the cumulative block bytes this node sent to
// disk.
func (dn *DataNode) SpilledBytes() int64 { return dn.store.SpilledBytes() }

// handlePut stores block args.ID in the request tail's own buffer,
// kept from the wire layer: the block is allocated once, by the frame
// read. Only a buffer far larger than its block (a pooled 4 MB one
// holding a short last block) is copied from, so a store never pins
// much more than it holds.
func (dn *DataNode) handlePut(args PutArgs, tail *rpcnet.Tail) (PutReply, rpcnet.Reply, error) {
	block := tail.Bytes()
	if cap(block) > 2*len(block) {
		block = bytes.Clone(block)
	} else {
		block = tail.Keep()
	}
	return PutReply{}, rpcnet.Reply{}, dn.store.Put(args.ID, block)
}

// handleGet answers with the stored block as the reply tail: the
// store's own bytes, which go to the socket uncopied and stay lent,
// through a delete or a re-put of the ID, until the reply is written.
func (dn *DataNode) handleGet(args GetArgs, _ *rpcnet.Tail) (GetReply, rpcnet.Reply, error) {
	data, _, done, err := dn.store.LendRange(args.ID, 0, 0)
	if err != nil {
		return GetReply{}, rpcnet.Reply{}, fmt.Errorf("netmr: block %d not on this datanode", args.ID)
	}
	return GetReply{}, rpcnet.Reply{Bytes: data, Release: done}, nil
}

// handleReplicate pushes one locally stored block to a peer DataNode —
// the NameNode-planned re-replication transfer. The payload flows
// DataNode→DataNode, lent from the store until the push returns; the
// NameNode only ever sees the acknowledgement.
func (dn *DataNode) handleReplicate(args ReplicateArgs) (ReplicateReply, error) {
	data, _, done, err := dn.store.LendRange(args.ID, 0, 0)
	if err != nil {
		return ReplicateReply{}, fmt.Errorf("netmr: block %d not on this datanode", args.ID)
	}
	defer done()
	if err := dn.wire.bulk(args.Target, "Put", PutArgs{ID: args.ID}, data, nil, nil); err != nil {
		return ReplicateReply{}, fmt.Errorf("netmr: replicate block %d to %s: %w", args.ID, args.Target, err)
	}
	return ReplicateReply{}, nil
}
