package rpcnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
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
	handlers map[string]TailHandler
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
		handlers: make(map[string]TailHandler),
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers a handler for a method that moves no bulk bytes: a
// tail sent to it is ignored and its reply carries none.
func (s *Server) Handle(method string, h Handler) {
	s.HandleTail(method, func(body, _ []byte) (any, []byte, error) {
		result, err := h(body)
		return result, nil, err
	})
}

// HandleTail registers a method handler. Registration after Close is a
// no-op; re-registering a name replaces the handler.
func (s *Server) HandleTail(method string, h TailHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

func (s *Server) lookup(method string) (TailHandler, bool) {
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
	if err := readHello(br); err != nil {
		return
	}
	if err := writeHello(conn); err != nil {
		return
	}
	fw := &frameWriter{conn: conn}
	sem := make(chan struct{}, maxConnConcurrency)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		if fr.flags&frameFlagResponse != 0 {
			fr.release()
			return // protocol violation
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(fr frame) {
			defer func() {
				<-sem
				handlers.Done()
			}()
			s.dispatch(fw, fr)
		}(fr)
	}
}

// dispatch runs one request through its handler and writes the tagged
// response. Write errors are dropped — the read loop will notice the
// broken connection — except ErrFrameTooLarge: that one is returned
// before a byte is written, so the connection is healthy and the caller
// would wait out its whole timeout for an ID nobody answers. It gets an
// error frame instead.
func (s *Server) dispatch(fw *frameWriter, fr frame) {
	respBody := getBuf(0)
	defer putBuf(respBody)
	var respTail []byte
	errMsg := ""
	if h, ok := s.lookup(fr.meta); !ok {
		errMsg = fmt.Sprintf("rpcnet: unknown method %q", fr.meta)
	} else if result, tail, err := h(fr.body.Bytes(), fr.tailBytes()); err != nil {
		errMsg = err.Error()
	} else if err := marshalTo(respBody, result); err != nil {
		respBody.Reset()
		errMsg = err.Error()
	} else {
		respTail = tail
	}
	fr.release()
	if err := fw.send(time.Time{}, fr.id, frameFlagResponse, errMsg, respBody.Bytes(), respTail); errors.Is(err, ErrFrameTooLarge) {
		fw.send(time.Time{}, fr.id, frameFlagResponse,
			fmt.Sprintf("rpcnet: response to %s: frame too large", fr.meta), nil, nil)
	}
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
