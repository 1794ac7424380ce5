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
// slice (Client.CallTail, Server.HandleTail). Control messages have no
// tail; Call, CallTimeout and Handle are the tail-less forms. A
// connection starts with a 4-byte magic each way and negotiates
// nothing: no frame is compressed. See ARCHITECTURE.md ("The wire
// layer") for the frame layout.
//
// Client is a connection pool over that protocol: calls fan out over
// a few multiplexed connections, a call that times out leaves its
// connection usable (the late response is discarded by ID), and a
// connection that dies is redialed transparently on the next call.
package rpcnet

import (
	"bytes"
	"encoding/gob"
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

// Marshal gob-encodes v.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := marshalTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// marshalTo gob-encodes v into buf — the pooled-buffer encode path
// Call and the server dispatcher use.
func marshalTo(buf *bytes.Buffer, v any) error {
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return fmt.Errorf("rpcnet: encode: %w", err)
	}
	return nil
}

// Unmarshal gob-decodes data into v (a pointer).
func Unmarshal(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("rpcnet: decode: %w", err)
	}
	return nil
}

// Handler serves one method: it decodes its argument from body, does
// the work, and returns a gob-encodable result. Handlers run
// concurrently — across connections and across the calls multiplexed
// on one connection — and must be safe for that. The body slice is
// only valid until the handler returns.
type Handler func(body []byte) (any, error)

// TailHandler is a Handler for a method that moves bulk bytes: tail is
// the request's raw tail and replyTail becomes the reply's. Like body,
// tail is only valid until the handler returns — a handler that keeps
// the bytes, or answers with them, copies them. replyTail goes to the
// socket as it is, so it must stay unmodified until the reply is
// written; a slice of stored, immutable bytes needs no copy.
type TailHandler func(body, tail []byte) (result any, replyTail []byte, err error)

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
