package rpcnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"

	"hetmr/internal/spill"
)

// maxConnConcurrency caps the handler goroutines one connection can
// have in flight; further request frames queue on the connection's
// read loop until a slot frees.
const maxConnConcurrency = 64

// Server is the rpcnet v2 server: one TCP listener, one read loop per
// connection, and concurrent handler dispatch per connection —
// responses are written as handlers finish, in any order, tagged with
// the request ID they answer.
type Server struct {
	ln       net.Listener
	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer listens on addr ("127.0.0.1:0" for an ephemeral port).
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: listen: %w", err)
	}
	s := &Server{
		ln:       ln,
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers a method handler. Registration after Close is a
// no-op; re-registering a name replaces the handler.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

func (s *Server) lookup(method string) (Handler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[method]
	return h, ok
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers the client hello, then reads request frames and
// dispatches each to a handler goroutine (bounded by
// maxConnConcurrency). It returns on EOF or a broken peer, after the
// in-flight handlers drain.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, connReadBuf)
	proposed, err := readHello(br)
	if err != nil {
		return
	}
	var codec spill.Codec
	accepted := ""
	if proposed != "" {
		if c, ok := spill.CodecByName(proposed); ok {
			codec = c
			accepted = proposed
		}
	}
	if err := writeHello(conn, accepted); err != nil {
		return
	}
	var wmu sync.Mutex
	sem := make(chan struct{}, maxConnConcurrency)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		if fr.flags&frameFlagResponse != 0 {
			putBuf(fr.body)
			return // protocol violation
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(fr frame) {
			defer func() {
				<-sem
				handlers.Done()
			}()
			s.dispatch(conn, &wmu, codec, fr)
		}(fr)
	}
}

// dispatch runs one request through its handler and writes the tagged
// response. Write errors are dropped — the read loop will notice the
// broken connection — except ErrFrameTooLarge: that one is returned
// before a byte is written, so the connection is healthy and the caller
// would wait out its whole timeout for an ID nobody answers. It gets an
// error frame instead.
func (s *Server) dispatch(conn net.Conn, wmu *sync.Mutex, codec spill.Codec, fr frame) {
	body := fr.body.Bytes()
	var decBuf *bytes.Buffer
	errMsg := ""
	if fr.flags&frameFlagCompressed != 0 {
		if codec == nil {
			errMsg = "rpcnet: compressed request without negotiated codec"
		} else {
			decBuf = getBuf()
			if err := decompressInto(codec, decBuf, body); err != nil {
				errMsg = fmt.Sprintf("rpcnet: decompress request: %v", err)
			} else {
				body = decBuf.Bytes()
			}
		}
	}
	var respBody *bytes.Buffer
	if errMsg == "" {
		if h, ok := s.lookup(fr.meta); !ok {
			errMsg = fmt.Sprintf("rpcnet: unknown method %q", fr.meta)
		} else if result, err := h(body); err != nil {
			errMsg = err.Error()
		} else {
			respBody = getBuf()
			if err := marshalTo(respBody, result); err != nil {
				putBuf(respBody)
				respBody = nil
				errMsg = err.Error()
			}
		}
	}
	putBuf(fr.body)
	putBuf(decBuf)
	var raw []byte
	if respBody != nil {
		raw = respBody.Bytes()
	}
	if err := sendFrame(conn, wmu, fr.id, frameFlagResponse, errMsg, raw, codec); errors.Is(err, ErrFrameTooLarge) {
		sendFrame(conn, wmu, fr.id, frameFlagResponse,
			fmt.Sprintf("rpcnet: response to %s: frame too large", fr.meta), nil, codec)
	}
	putBuf(respBody)
}

// Close stops the listener, severs live connections and waits for
// connection goroutines to drain. Clients with in-flight calls get a
// connection error, not a hang.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
