// Package rpcnet is the wire layer of the TCP-backed distributed
// runtime (internal/netmr). Hadoop's daemons talk Hadoop IPC over
// TCP; this is the equivalent substrate, built only on net and
// encoding/gob.
//
// The protocol (v2) is a multiplexed, tagged-frame stream. One
// connection carries any number of concurrent in-flight calls: every
// request frame carries a caller-chosen request ID, the server
// dispatches handlers concurrently per connection, and response
// frames come back in completion order — the ID, not the arrival
// order, matches a response to its call. A frame is a gob-encoded
// argument or result and, behind it, an optional raw tail: the bulk
// bytes of the call (a DFS block, a shuffle chunk), which never pass
// through gob — the sender writes them to the socket from the caller's
// slice (Client.CallTail, Server.HandleTail) — and the receiver lends
// them from its pooled frame buffer, to the handler or the caller's use
// func, only until that returns (race builds poison a released buffer).
// A handler may instead keep its request tail's buffer (Tail.Keep) and
// give it back to the pool with Recycle once done with it (Borrow hands
// out the same buffers for bulk bytes a caller builds), and may
// answer with stored bytes whose Reply.Release runs once they are
// written. Control messages have no tail; Call, CallTimeout and Handle
// are the tail-less forms. A connection starts with a 4-byte magic each
// way and negotiates nothing: no frame is compressed. See
// ARCHITECTURE.md ("The wire layer") for the frame layout.
//
// Client is a connection pool over that protocol: calls fan out over
// a few multiplexed connections, a call that times out leaves its
// connection usable (the late response is discarded by ID), and a
// connection that dies is redialed transparently on the next call, over
// an in-memory pipe for WithInProcess to a Server of this process.
package rpcnet

import (
	"bytes"
	"errors"
	"fmt"
)

// MaxFrame bounds a single message (a DFS block plus envelope must
// fit; 128 MB covers 64 MB blocks comfortably).
const MaxFrame = 128 << 20

// ErrFrameTooLarge is returned for frames above MaxFrame.
var ErrFrameTooLarge = errors.New("rpcnet: frame exceeds maximum size")

// ErrClientClosed is returned by calls on a Client after Close.
var ErrClientClosed = errors.New("rpcnet: client closed")

// errMalformedFrame reports a frame whose header lies about its own
// shape (length below the fixed minimum, meta or tail running past the
// end) or sets a flag bit other than the response bit.
var errMalformedFrame = errors.New("rpcnet: malformed frame")

// Handler serves one method: it decodes its argument from body, does
// the work, and returns a gob-encodable result. Handlers run
// concurrently — across connections and across the calls multiplexed
// on one connection — and must be safe for that. The body slice is
// only valid until the handler returns.
type Handler func(body []byte) (any, error)

// TailHandler is a Handler for a method that moves bulk bytes: tail is
// the request's raw tail and reply the reply's. Like body, tail is lent
// only until the handler returns, unless the handler keeps its buffer
// (Tail.Keep).
type TailHandler func(body []byte, tail *Tail) (result any, reply Reply, err error)

// Tail is a request's raw tail in the pooled frame buffer the server
// read it into.
type Tail struct {
	buf  *bytes.Buffer // nil when the request carried no tail
	kept bool
}

// Bytes returns the tail, valid until the handler returns unless it
// calls Keep; nil when the request carried none.
func (t *Tail) Bytes() []byte {
	if t.buf == nil {
		return nil
	}
	return t.buf.Bytes()
}

// Keep takes the tail's buffer from the server, which then does not
// return it to its pool: the bytes stay valid, and rpcnet never touches
// them again, until the keeper hands them to Recycle or drops them.
func (t *Tail) Keep() []byte {
	t.kept = true
	return t.Bytes()
}

// Reply is a handler's reply tail. Bytes go to the socket as they are,
// so they must stay unmodified until the frame is written; a slice of
// stored, immutable bytes needs no copy. Release, when set, runs once
// the reply frame has been written or has failed to be, also when the
// handler's error replaced it: after it, rpcnet holds no reference to
// Bytes.
type Reply struct {
	Bytes   []byte
	Release func()
}

// BulkMin is where the frame pool's bulk size classes start, and
// their step: every bulk buffer's capacity is a multiple of it, and
// each multiple up to 4 MiB is a class of its own.
const BulkMin = 128 << 10

// Borrow returns an n-byte buffer, contents garbage, for bulk bytes
// its caller will own — a sorted run, a reduce output — from the frame
// pool's bulk classes, which Recycle fills. It takes the smallest
// pooled buffer that holds n and at most twice n, as a frame read does;
// failing that, it allocates n rounded up to a BulkMin step. Below
// BulkMin, Borrow is a plain make. The caller gives the buffer back
// with Recycle, or drops it.
func Borrow(n int) []byte {
	if n < bulkBufMin {
		return make([]byte, n)
	}
	if b := bulkFit(n); b.Cap() > 0 {
		return b.AvailableBuffer()[:n]
	}
	return make([]byte, n, bulkCap(n))
}

// Recycle gives a buffer its caller owns — one Tail.Keep or Borrow
// returned, say — to the frame pool, in the size class its capacity
// puts it in (a block's is a bulk class), poisoned over its whole
// capacity first in race builds. A bulk-sized buffer whose capacity is
// not a BulkMin step is dropped. Nothing may touch p afterwards.
func Recycle(p []byte) {
	putBuf(bytes.NewBuffer(p[:cap(p)]))
}

// RemoteError is an error reported by the remote handler.
type RemoteError struct {
	Method string
	Addr   string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpcnet: remote %s at %s: %s", e.Method, e.Addr, e.Msg)
}
