package netmr

import (
	"bytes"
	"fmt"
	"strconv"
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
// Register heartbeat and repeats the beat on a timer, so the NameNode
// holds an authoritative liveness view and can re-replicate the node's
// blocks when it goes silent. The Replicate RPC is the repair path's
// data mover: the NameNode plans a copy, this node pushes the block
// straight to the target peer.
type DataNode struct {
	srv   *rpcnet.Server
	store *spill.Store
	// wire caches the pooled connections this node calls out on: the
	// NameNode for beats, peer DataNodes for Replicate pushes.
	wire *connCache

	nnAddr string
	rack   string

	beater *background
}

// StartDataNode launches a DataNode on addr as worker number worker of
// cfg (its rack, beat interval and block store) and registers it with
// the NameNode over its first heartbeat; the beat then repeats until
// Close.
func StartDataNode(addr, nameNodeAddr string, worker int, cfg Config) (*DataNode, error) {
	srv, err := rpcnet.NewServer(addr)
	if err != nil {
		return nil, err
	}
	dn := &DataNode{
		srv:    srv,
		store:  spill.NewStore(cfg.SpillDir, cfg.SpillMem, cfg.SpillCodec),
		nnAddr: nameNodeAddr,
		rack:   cfg.rack(worker),
		wire:   newConnCache(),
	}
	// The beat is this cache's control-plane call: a NameNode that goes
	// mute must cost a missed beat, not wedge the loop (and Close behind
	// it). Block pushes to peers pass their own, longer timeout.
	dn.wire.timeout = heartbeatCallTimeout
	handleTail(srv, "Put", dn.handlePut)
	handleTail(srv, "Get", dn.handleGet)
	handle(srv, "Replicate", dn.handleReplicate)
	// First beat synchronously: callers may allocate right after
	// StartDataNode returns, so the node must already be a member.
	if err := dn.beat(); err != nil {
		srv.Close()
		dn.wire.close()
		dn.store.Close()
		return nil, err
	}
	// A missed beat (NameNode briefly unreachable) just retries next tick.
	dn.beater = every(cfg.heartbeat(), func(time.Time) { dn.beat() })
	return dn, nil
}

// beat sends one Register heartbeat and drops the blocks of deleted
// files its reply names.
func (dn *DataNode) beat() error {
	var reply RegisterReply
	if err := dn.wire.call(dn.nnAddr, "Register", RegisterArgs{Addr: dn.srv.Addr(), Rack: dn.rack}, &reply); err != nil {
		return err
	}
	for _, id := range reply.Free {
		dn.store.Delete(dnBlockKey(id))
	}
	return nil
}

// Addr returns the DataNode's RPC address.
func (dn *DataNode) Addr() string { return dn.srv.Addr() }

// Close stops the heartbeat loop and the server, and releases any
// spill files. Idempotent.
func (dn *DataNode) Close() error {
	dn.beater.halt()
	err := dn.srv.Close()
	dn.wire.close()
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

func dnBlockKey(id int64) string { return strconv.FormatInt(id, 10) }

// handlePut stores a copy of the request tail as block args.ID: the
// tail is the wire layer's buffer, and the store keeps what it is
// handed.
func (dn *DataNode) handlePut(args PutArgs, block []byte) (PutReply, []byte, error) {
	return PutReply{}, nil, dn.store.Put(dnBlockKey(args.ID), bytes.Clone(block))
}

// handleGet answers with the stored block as the reply tail: the
// store's own bytes, which go to the socket uncopied.
func (dn *DataNode) handleGet(args GetArgs, _ []byte) (GetReply, []byte, error) {
	data, err := dn.store.Get(dnBlockKey(args.ID))
	if err != nil {
		return GetReply{}, nil, fmt.Errorf("netmr: block %d not on this datanode", args.ID)
	}
	return GetReply{}, data, nil
}

// handleReplicate pushes one locally stored block to a peer DataNode —
// the NameNode-planned re-replication transfer. The payload flows
// DataNode→DataNode; the NameNode only ever sees the acknowledgement.
func (dn *DataNode) handleReplicate(args ReplicateArgs) (ReplicateReply, error) {
	data, err := dn.store.Get(dnBlockKey(args.ID))
	if err != nil {
		return ReplicateReply{}, fmt.Errorf("netmr: block %d not on this datanode", args.ID)
	}
	if _, err := dn.wire.bulk(args.Target, "Put", PutArgs{ID: args.ID}, data, nil, nil); err != nil {
		return ReplicateReply{}, fmt.Errorf("netmr: replicate block %d to %s: %w", args.ID, args.Target, err)
	}
	return ReplicateReply{}, nil
}
