package netmr

import (
	"fmt"
	"sync"
	"time"

	"hetmr/internal/rpcnet"
)

// handleTail registers fn as srv's handler for method — the one place a
// request body is decoded, so every daemon's handler is its typed core
// and in-process callers use the same function the wire does. fn takes
// the request's raw tail and returns the reply's, under
// rpcnet.TailHandler's ownership rules: Put, Get and FetchPartition,
// whose bulk bytes skip gob.
func handleTail[A, R any](srv *rpcnet.Server, method string, fn func(A, *rpcnet.Tail) (R, rpcnet.Reply, error)) {
	srv.HandleTail(method, func(body []byte, tail *rpcnet.Tail) (any, rpcnet.Reply, error) {
		var args A
		if err := rpcnet.Unmarshal(body, &args); err != nil {
			return nil, rpcnet.Reply{}, err
		}
		return fn(args, tail)
	})
}

// handle is handleTail for the methods that move no bulk bytes.
func handle[A, R any](srv *rpcnet.Server, method string, fn func(A) (R, error)) {
	handleTail(srv, method, func(args A, _ *rpcnet.Tail) (R, rpcnet.Reply, error) {
		reply, err := fn(args)
		return reply, rpcnet.Reply{}, err
	})
}

// connCache keeps one pooled rpcnet client per remote address, so the
// data plane reuses multiplexed connections instead of dialing per
// call (protocol v1's pattern, which put a TCP handshake and a gob
// envelope on every block). The rpcnet client self-heals — a dead
// connection redials on the next call — so entries never need
// eviction; an unreachable peer just keeps failing its calls.
type connCache struct {
	// timeout is the default call timeout of every client the cache
	// dials: a peer that accepts and then never answers fails the call
	// instead of wedging its caller (an explicit CallTimeout overrides
	// it). Set before the first get.
	timeout time.Duration
	// local, the co-located DataNode's address, is dialed WithInProcess
	// (a pipe while it runs in this process). Set before the first get.
	local string

	mu     sync.Mutex
	conns  map[string]*rpcnet.Client
	closed bool
}

func newConnCache() *connCache {
	return &connCache{timeout: dataCallTimeout, conns: make(map[string]*rpcnet.Client)}
}

// get returns the cached client for addr, dialing one on first use.
// The dial happens outside cc.mu: one unreachable peer must not block
// the whole data plane's cache behind its TCP handshake (hetlint:
// lockheldcall).
func (cc *connCache) get(addr string) (*rpcnet.Client, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, fmt.Errorf("netmr: connection cache closed")
	}
	if c, ok := cc.conns[addr]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()

	var opts []rpcnet.Option
	if addr == cc.local {
		opts = append(opts, rpcnet.WithInProcess())
	}
	c, err := rpcnet.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	c.SetCallTimeout(cc.timeout)

	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("netmr: connection cache closed")
	}
	if cur, ok := cc.conns[addr]; ok {
		// Lost the dial race: keep the cached winner, retire ours.
		cc.mu.Unlock()
		c.Close()
		return cur, nil
	}
	cc.conns[addr] = c
	cc.mu.Unlock()
	return c, nil
}

// call runs one RPC against the daemon at addr over its pooled
// connection, under the cache's default call timeout.
func (cc *connCache) call(addr, method string, args, reply any) error {
	c, err := cc.get(addr)
	if err != nil {
		return err
	}
	return c.Call(method, args, reply)
}

// bulk runs one data-plane RPC against the daemon at addr: tail rides
// behind args as the request's raw frame tail and the reply's tail is
// lent to use (rpcnet.CallTail: valid until use returns; nil discards
// it), under dataCallTimeout.
func (cc *connCache) bulk(addr, method string, args any, tail []byte, reply any, use func([]byte) error) error {
	c, err := cc.get(addr)
	if err != nil {
		return err
	}
	return c.CallTail(method, args, tail, reply, dataCallTimeout, use)
}

// close tears down every cached client. Idempotent.
func (cc *connCache) close() {
	cc.mu.Lock()
	conns := cc.conns
	cc.conns = nil
	cc.closed = true
	cc.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
