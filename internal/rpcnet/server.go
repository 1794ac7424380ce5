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
// the request ID they answer. A client in the same process can also
// reach it over an in-memory pipe (WithInProcess), served the same way.
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
	inProcess.Store(s.Addr(), s)
	return s, nil
}

var inProcess sync.Map // addr → open *Server, for WithInProcess

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers a handler for a method that moves no bulk bytes: a
// tail sent to it is ignored and its reply carries none.
func (s *Server) Handle(method string, h Handler) {
	s.HandleTail(method, func(body []byte, _ *Tail) (any, Reply, error) {
		result, err := h(body)
		return result, Reply{}, err
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
		if err != nil || !s.serve(conn) {
			return // listener closed
		}
	}
}

// pipe opens an in-process connection and returns its client end; the
// server end is served like an accepted socket. Nil once closed.
func (s *Server) pipe() net.Conn {
	client, server := net.Pipe()
	if !s.serve(server) {
		client.Close()
		return nil
	}
	return client
}

// serve tracks conn and serves it on a goroutine of its own until it
// ends or Close severs it. After Close it closes conn and returns false.
func (s *Server) serve(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
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
	return true
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
	fw := &frameWriter{conn: conn, pipe: isPipe(conn)}
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
// response, then runs the reply's Release. Write errors are dropped —
// the read loop will notice the broken connection — except
// ErrFrameTooLarge: that one is returned before a byte is written, so
// the connection is healthy and the caller would wait out its whole
// timeout for an ID nobody answers. It gets an error frame instead.
func (s *Server) dispatch(fw *frameWriter, fr frame) {
	var (
		result any
		reply  Reply
		err    error
	)
	tail := Tail{buf: fr.tail}
	if h, ok := s.lookup(fr.meta); ok {
		result, reply, err = h(fr.body.Bytes(), &tail)
	} else {
		err = fmt.Errorf("rpcnet: unknown method %q", fr.meta)
	}
	respBody := getBuf(0) // taken after the handler: a held call holds none
	defer putBuf(respBody)
	if err == nil {
		if err = marshalTo(respBody, result); err != nil {
			respBody.Reset()
		}
	}
	respTail, errMsg := reply.Bytes, ""
	if err != nil {
		respTail, errMsg = nil, err.Error()
	}
	if tail.kept {
		fr.tail = nil // the handler's now
	}
	fr.release()
	if err := fw.send(time.Time{}, fr.id, frameFlagResponse, errMsg, respBody.Bytes(), respTail); errors.Is(err, ErrFrameTooLarge) {
		fw.send(time.Time{}, fr.id, frameFlagResponse,
			fmt.Sprintf("rpcnet: response to %s: frame too large", fr.meta), nil, nil)
	}
	if reply.Release != nil {
		reply.Release()
	}
}

// Close stops the listener, severs live connections — pipes included —
// and waits for connection goroutines to drain. Clients with in-flight
// calls get a connection error, not a hang.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	inProcess.CompareAndDelete(s.Addr(), s)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
