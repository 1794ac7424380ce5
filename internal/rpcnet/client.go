package rpcnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPoolSize is the number of multiplexed connections a Client
// keeps per address. Multiplexing carries the concurrency; a second
// connection mainly keeps a huge frame mid-write from
// head-of-line-blocking small control calls.
const DefaultPoolSize = 2

// Option configures a Client at Dial time.
type Option func(*dialOptions)

type dialOptions struct {
	poolSize  int
	inProcess bool
}

// WithInProcess reaches a Server of this process over an in-memory pipe:
// the same frames, handlers, timeouts and failures, no socket. Without
// an open Server of this process at the address it dials TCP.
func WithInProcess() Option {
	return func(o *dialOptions) { o.inProcess = true }
}

// Client is a pooled, multiplexed connection to one rpcnet server.
// Calls from any number of goroutines share the pool's connections;
// each in-flight call is matched to its response by request ID. A
// call that times out abandons only its own reply — the connection
// stays usable — and a connection that dies is redialed on the next
// call that lands on it. Safe for concurrent use.
type Client struct {
	addr      string
	inProcess bool
	timeout   atomic.Int64 // default per-call timeout, ns

	mu     sync.Mutex
	conns  []*clientConn
	rr     uint64 // round-robin cursor over conns
	closed bool
}

// clientConn is one multiplexed connection: a shared write side and a
// readLoop that routes response frames to pending calls.
type clientConn struct {
	nc net.Conn
	w  frameWriter // over nc

	mu      sync.Mutex
	pending map[uint64]chan callResult
	err     error // terminal; set once, conn is dead after

	nextID atomic.Uint64
}

// callResult carries one response frame (its pooled buffers owned by
// the receiver) or a transport failure from the readLoop to the waiting
// call.
type callResult struct {
	fr  frame
	err error
}

// Dial connects to an rpcnet server. The returned Client is a pool of
// DefaultPoolSize connections. Dial establishes the first connection
// eagerly so an unreachable address fails fast.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := dialOptions{poolSize: DefaultPoolSize}
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{addr: addr, inProcess: o.inProcess, conns: make([]*clientConn, o.poolSize)}
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cc
	return c, nil
}

// dialConn opens one connection: an in-process pipe or a TCP dial,
// send our hello, and start the readLoop (which consumes the server's
// hello first — the exchange is asynchronous so dialing a mute server
// still returns).
func (c *Client) dialConn() (*clientConn, error) {
	var nc net.Conn
	if s, ok := inProcess.Load(c.addr); ok && c.inProcess {
		nc = s.(*Server).pipe()
	}
	if nc == nil {
		var err error
		if nc, err = net.Dial("tcp", c.addr); err != nil {
			return nil, fmt.Errorf("rpcnet: dial %s: %w", c.addr, err)
		}
	}
	if err := writeHello(nc); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rpcnet: dial %s: hello: %w", c.addr, err)
	}
	cc := &clientConn{
		nc:      nc,
		w:       frameWriter{conn: nc, pipe: isPipe(nc)},
		pending: make(map[uint64]chan callResult),
	}
	go cc.readLoop()
	return cc, nil
}

// readLoop owns the connection's read side: it consumes the server
// hello, then routes every response frame to the pending call it
// tags. Any read error kills the connection and fails all pending
// calls.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, connReadBuf)
	if err := readHello(br); err != nil {
		cc.fail(fmt.Errorf("rpcnet: hello: %w", err))
		return
	}
	for {
		fr, err := readFrame(br)
		if err != nil {
			cc.fail(err)
			return
		}
		if fr.flags&frameFlagResponse == 0 {
			fr.release()
			cc.fail(errors.New("rpcnet: request frame on client connection"))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[fr.id]
		delete(cc.pending, fr.id)
		cc.mu.Unlock()
		if !ok {
			// Late reply to a call that timed out: discard by ID.
			fr.release()
			continue
		}
		ch <- callResult{fr: fr}
	}
}

// fail marks the connection dead and delivers err to every pending
// call. Idempotent; the first error wins.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	pend := cc.pending
	cc.pending = nil
	cc.mu.Unlock()
	cc.nc.Close()
	for _, ch := range pend {
		ch <- callResult{err: err}
	}
}

// register parks a pending call; it fails if the connection already
// died.
func (cc *clientConn) register(id uint64, ch chan callResult) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	cc.pending[id] = ch
	return nil
}

// deregister abandons a pending call (timeout path). The connection
// stays healthy; a late reply is dropped by ID.
func (cc *clientConn) deregister(id uint64) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// dead reports whether the connection has hit a terminal error.
func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// conn picks the next pool slot round-robin, redialing it if its
// connection is missing or dead. The dial itself happens outside c.mu
// — an unreachable server must stall only the calls that need the new
// connection, not every goroutine touching the pool (hetlint:
// lockheldcall).
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	i := int(c.rr % uint64(len(c.conns)))
	c.rr++
	if cc := c.conns[i]; cc != nil && !cc.dead() {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()

	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if cur := c.conns[i]; cur != nil && !cur.dead() {
		// Lost the redial race: keep the winner, retire ours.
		c.mu.Unlock()
		cc.fail(errors.New("rpcnet: duplicate connection discarded"))
		return cur, nil
	}
	c.conns[i] = cc
	c.mu.Unlock()
	return cc, nil
}

// SetCallTimeout bounds each subsequent call. Zero (the default)
// means no timeout. Unlike protocol v1, a timed-out call does not
// poison its connection: the reply, if it ever arrives, is discarded
// by request ID and the connection keeps serving other calls.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.timeout.Store(int64(d))
}

// Call invokes method on the server, gob-encoding arg and decoding
// the response into result (which may be nil to discard it). An arg or
// result whose type Marshal refuses fails the call before it is sent.
// It applies the client's default timeout (SetCallTimeout). Safe for
// concurrent use; concurrent calls share the pool's connections.
func (c *Client) Call(method string, arg, result any) error {
	return c.CallTimeout(method, arg, result, time.Duration(c.timeout.Load()))
}

// CallTimeout is Call with an explicit per-call timeout (zero means
// none), overriding the client default. On timeout the error wraps
// os.ErrDeadlineExceeded, so it satisfies net.Error.Timeout().
func (c *Client) CallTimeout(method string, arg, result any, timeout time.Duration) error {
	return c.CallTail(method, arg, nil, result, timeout, nil)
}

// CallTail is the call every other is a wrapper over: CallTimeout plus
// a raw tail each way, for methods that move bulk bytes. tail travels
// behind the gob-encoded arg without passing through gob — it goes to
// the socket from the caller's slice. The reply's tail is lent, not
// copied: once result is decoded, use runs on the caller's goroutine
// on the tail in its pooled frame buffer, valid until use returns, and
// CallTail returns use's error. A nil use discards the tail; a call
// that fails or times out never runs use, so a late reply never reaches
// a caller that has moved on. The timeout covers the send and the wait.
func (c *Client) CallTail(method string, arg any, tail []byte, result any, timeout time.Duration, use func([]byte) error) error {
	bodyBuf := getBuf(0)
	defer putBuf(bodyBuf)
	if err := marshalTo(bodyBuf, arg); err != nil {
		return err
	}
	if _, err := codecFor(reflect.TypeOf(result)); err != nil {
		return err // refused before the call costs the server anything
	}

	cc, err := c.conn()
	if err != nil {
		return err
	}
	id := cc.nextID.Add(1)
	ch := make(chan callResult, 1)
	if err := cc.register(id, ch); err != nil {
		// Lost a race with the readLoop failing the conn; one retry on
		// a fresh connection.
		if cc, err = c.conn(); err != nil {
			return err
		}
		id = cc.nextID.Add(1)
		if err := cc.register(id, ch); err != nil {
			return fmt.Errorf("rpcnet: call %s on %s: %w", method, c.addr, err)
		}
	}

	var (
		deadline time.Time
		timerCh  <-chan time.Time
	)
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerCh = timer.C
	}
	if err := cc.w.send(deadline, id, 0, method, bodyBuf.Bytes(), tail); err != nil {
		// Part of the frame may be on the wire and cannot be resumed: the
		// connection is done, the next call redials.
		cc.deregister(id)
		cc.fail(err)
		return fmt.Errorf("rpcnet: call %s on %s: %w", method, c.addr, err)
	}

	select {
	case res := <-ch:
		return c.finish(method, result, use, res)
	case <-timerCh:
		cc.deregister(id)
		return fmt.Errorf("rpcnet: call %s on %s: %w", method, c.addr, os.ErrDeadlineExceeded)
	}
}

// finish decodes one call's response and lends its tail to use.
func (c *Client) finish(method string, result any, use func([]byte) error, res callResult) error {
	if res.err != nil {
		return fmt.Errorf("rpcnet: call %s on %s: %w", method, c.addr, res.err)
	}
	fr := &res.fr
	defer fr.release()
	if fr.meta != "" {
		return &RemoteError{Method: method, Addr: c.addr, Msg: fr.meta}
	}
	if result != nil {
		if err := Unmarshal(fr.body.Bytes(), result); err != nil {
			return err
		}
	}
	if use == nil {
		return nil
	}
	return use(fr.tailBytes())
}

// Close tears down every pooled connection. In-flight calls fail.
// Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.fail(ErrClientClosed)
		}
	}
	return nil
}
