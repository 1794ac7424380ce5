package rpcnet

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoTagged is a handler that returns its []byte argument unchanged.
func echoTagged(body []byte) (any, error) {
	var blob []byte
	if err := Unmarshal(body, &blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// TestConcurrentMultiplexedCalls drives one pooled client from many
// goroutines with mixed small and 64K payloads. Every response must
// come back on the request ID that asked for it — each payload is
// tagged with the caller's identity and verified on return.
func TestConcurrentMultiplexedCalls(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("echo", echoTagged)

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		goroutines = 16
		callsEach  = 40
	)
	big := make([]byte, 64<<10)
	rand.Read(big)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				// Tag the payload with (goroutine, call) so a response
				// routed to the wrong caller is caught by content.
				var payload []byte
				if i%3 == 0 {
					payload = append([]byte(nil), big...)
				} else {
					payload = make([]byte, 16)
				}
				binary.BigEndian.PutUint64(payload[0:8], uint64(g))
				binary.BigEndian.PutUint64(payload[8:16], uint64(i))
				var got []byte
				if err := c.Call("echo", payload, &got); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("goroutine %d call %d: response routed to wrong caller (len %d vs %d)", g, i, len(got), len(payload))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRedialAfterTimeout proves the v2 client recovers on the SAME
// client after a timed-out call — the v1 client left its single
// connection permanently wedged mid-frame.
func TestRedialAfterTimeout(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := make(chan struct{})
	s.Handle("block", func([]byte) (any, error) {
		<-gate
		return struct{}{}, nil
	})
	s.Handle("quick", func([]byte) (any, error) {
		return "pong", nil
	})

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(gate)

	if err := c.CallTimeout("block", struct{}{}, nil, 30*time.Millisecond); err == nil {
		t.Fatal("blocked call outlived its timeout")
	}
	// The same client — and the same connection — must keep working.
	for i := 0; i < 5; i++ {
		var out string
		if err := c.Call("quick", struct{}{}, &out); err != nil {
			t.Fatalf("call %d after timeout failed: %v", i, err)
		}
		if out != "pong" {
			t.Fatalf("call %d after timeout returned %q", i, out)
		}
	}
}

// TestLateReplyDiscarded: a response that arrives after its call
// timed out must be dropped by ID — body and tail — not delivered to
// the next call, and the timed-out call's use must never run, even once
// the late reply has landed.
func TestLateReplyDiscarded(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.HandleTail("slow", func(_, _ []byte) (any, []byte, error) {
		time.Sleep(80 * time.Millisecond)
		return "slow-result", []byte("slow-tail"), nil
	})
	s.HandleTail("fast", func(_, _ []byte) (any, []byte, error) {
		return "fast-result", []byte("fast-tail"), nil
	})

	c, err := Dial(s.Addr(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var lateUses atomic.Int32
	late := func([]byte) error {
		lateUses.Add(1)
		return nil
	}
	if err := c.CallTail("slow", struct{}{}, nil, nil, 10*time.Millisecond, late); err == nil {
		t.Fatal("slow call outlived its timeout")
	}
	// Wait for the late reply to land on the shared connection, then
	// make a fresh call: it must see its own result and its own tail,
	// and the late tail must have gone nowhere.
	time.Sleep(120 * time.Millisecond)
	var out string
	var tail []byte
	if err := c.CallTail("fast", struct{}{}, nil, &out, 0, keep(&tail)); err != nil {
		t.Fatal(err)
	}
	if out != "fast-result" || string(tail) != "fast-tail" {
		t.Fatalf("late reply leaked into the next call: got %q with tail %q", out, tail)
	}
	if n := lateUses.Load(); n != 0 {
		t.Fatalf("the timed-out call's use ran %d times after its late reply landed", n)
	}
}

// TestRedialAfterConnDeath: killing the transport under the client
// must fail in-flight calls but heal on the next call.
func TestRedialAfterConnDeath(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("quick", func([]byte) (any, error) { return "ok", nil })

	c, err := Dial(s.Addr(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("quick", struct{}{}, &out); err != nil {
		t.Fatal(err)
	}
	// Sever the live connection out from under the client.
	c.mu.Lock()
	c.conns[0].nc.Close()
	c.mu.Unlock()
	// The pool redials; at most one call may observe the dying conn.
	var lastErr error
	for i := 0; i < 3; i++ {
		if lastErr = c.Call("quick", struct{}{}, &out); lastErr == nil {
			return
		}
	}
	t.Fatalf("client did not recover after conn death: %v", lastErr)
}
