package rpcnet

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// pipeConn reports whether c's first pooled connection is an
// in-process pipe.
func pipeConn(c *Client) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[0] != nil && isPipe(c.conns[0].nc)
}

// TestInProcessDialServesSameHandlers: a client dialed WithInProcess
// reaches the server over a pipe and gets what a socket client gets —
// gob results, tails both ways, remote errors and unknown methods.
func TestInProcessDialServesSameHandlers(t *testing.T) {
	s := newTailServer(t)
	c, err := Dial(s.Addr(), WithInProcess())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !pipeConn(c) {
		t.Fatal("WithInProcess to a server of this process dialed a socket")
	}
	var echo echoReply
	if err := c.Call("echo", echoArg{Msg: "piped"}, &echo); err != nil || echo.Msg != "piped" {
		t.Fatalf("echo: %q, err %v", echo.Msg, err)
	}
	text := bytes.Repeat([]byte("block "), 50_000)
	var rep tailReply
	dst, err := c.CallTail("tail", tailArg{Reply: 200 << 10}, text, &rep, nil, 0)
	if err != nil || rep.Got != len(text) || rep.Sum != xorSum(text) || !bytes.Equal(dst, pattern(200<<10)) {
		t.Fatalf("tail: handler saw %d bytes, %d came back, err %v", rep.Got, len(dst), err)
	}
	var re *RemoteError
	if err := c.Call("fail", echoArg{}, nil); !errors.As(err, &re) {
		t.Errorf("fail: err %v, want a RemoteError", err)
	}
	if err := c.Call("nope", echoArg{}, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("nope: err %v", err)
	}
}

// TestInProcessDialFallsBackToTCP: an address with no server of this
// process behind it is dialed over TCP, and a closed server is not
// reachable either way.
func TestInProcessDialFallsBackToTCP(t *testing.T) {
	s := newEchoServer(t)
	inProcess.Delete(s.Addr()) // as if the server ran in another process
	c, err := Dial(s.Addr(), WithInProcess())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var echo echoReply
	if err := c.Call("echo", echoArg{Msg: "tcp"}, &echo); err != nil || echo.Msg != "tcp" {
		t.Fatalf("echo: %q, err %v", echo.Msg, err)
	}
	if pipeConn(c) {
		t.Error("dialed a pipe to a server missing from this process")
	}
	s.Close()
	if _, err := Dial(s.Addr(), WithInProcess()); err == nil {
		t.Error("dial of a closed server succeeded")
	}
}

// TestServerCloseFailsInFlightPipeCall: Close severs pipe connections
// like sockets, so a call waiting on a blocked handler fails at once
// instead of hanging.
func TestServerCloseFailsInFlightPipeCall(t *testing.T) {
	s := newEchoServer(t)
	entered, release := make(chan struct{}), make(chan struct{})
	s.Handle("block", func([]byte) (any, error) {
		close(entered)
		<-release
		return struct{}{}, nil
	})
	c, err := Dial(s.Addr(), WithInProcess())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call("block", struct{}{}, nil) }()
	<-entered
	closed := make(chan struct{})
	go func() {
		s.Close() // waits for the blocked handler to return
		close(closed)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("in-flight call succeeded across Close")
		}
	case <-time.After(3 * time.Second):
		t.Error("in-flight pipe call still blocked 3s after Close")
	}
	close(release)
	<-closed
}

// TestPipeTimeouts: a call timeout and a write deadline bound a pipe as
// they bound a socket; a timed-out call leaves the connection usable.
func TestPipeTimeouts(t *testing.T) {
	s := newEchoServer(t)
	s.Handle("sleep", func([]byte) (any, error) {
		time.Sleep(300 * time.Millisecond)
		return struct{}{}, nil
	})
	c, err := Dial(s.Addr(), WithInProcess(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.CallTimeout("sleep", struct{}{}, nil, 50*time.Millisecond)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("sleep with a 50ms timeout: err %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("timed-out call took %v", elapsed)
	}
	var echo echoReply
	if err := c.Call("echo", echoArg{Msg: "after"}, &echo); err != nil || echo.Msg != "after" {
		t.Errorf("call after a timeout: %q, err %v", echo.Msg, err)
	}

	// A pipe has no buffer: with nobody reading, the write itself blocks
	// until its deadline.
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	fw := frameWriter{conn: client, pipe: true}
	start = time.Now()
	err = fw.send(time.Now().Add(50*time.Millisecond), 1, 0, "m", []byte("body"), nil)
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("send to a pipe nobody reads: err %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("write deadline of 50ms took %v", elapsed)
	}
}
