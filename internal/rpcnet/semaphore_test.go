package rpcnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTimedOutBurstDoesNotExhaustDispatchSlots pins the recovery of
// the per-connection dispatch semaphore: a burst of calls the client
// abandons on timeout fills every one of the connection's
// maxConnConcurrency handler slots with gated handlers, and once those
// handlers finish the slots must all be usable again. A regression
// that leaks a slot per abandoned call would deadlock the second
// phase.
func TestTimedOutBurstDoesNotExhaustDispatchSlots(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := make(chan struct{})
	s.Handle("gated", func([]byte) (any, error) {
		<-gate
		return struct{}{}, nil
	})
	s.Handle("quick", func([]byte) (any, error) {
		return struct{}{}, nil
	})

	// Pool size 1 so every call shares one connection's semaphore.
	c, err := Dial(s.Addr(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: twice as many gated calls as there are slots, all with
	// a timeout far shorter than the gate stays shut. Every call is
	// abandoned client-side while its handler (or queued frame) still
	// occupies the server.
	var burst sync.WaitGroup
	for i := 0; i < 2*maxConnConcurrency; i++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			if err := c.CallTimeout("gated", struct{}{}, nil, 25*time.Millisecond); err == nil {
				t.Error("gated call succeeded before the gate opened")
			}
		}()
	}
	burst.Wait()

	// Phase 2: release the handlers; their deferred slot releases must
	// restore the full concurrency budget.
	close(gate)
	var done sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < maxConnConcurrency; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			if err := c.CallTimeout("quick", struct{}{}, nil, 10*time.Second); err != nil {
				t.Errorf("post-burst call failed: %v", err)
				return
			}
			ok.Add(1)
		}()
	}
	done.Wait()
	if got := ok.Load(); got != maxConnConcurrency {
		t.Fatalf("only %d/%d post-burst calls succeeded; dispatch slots were not recovered", got, maxConnConcurrency)
	}
}
