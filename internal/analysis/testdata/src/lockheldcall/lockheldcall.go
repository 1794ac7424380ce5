// Package lockheldcall is the fixture for the lockheldcall analyzer:
// each function is one positive (want) or negative (clean) case.
package lockheldcall

import (
	"os"
	"sync"
	"time"

	"rpcnet"
)

// S carries the locks and resources the cases exercise.
type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	c  *rpcnet.Client
}

func (s *S) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(1) // want `call to time\.Sleep \(sleeps\) while s\.mu is held`
	s.mu.Unlock()
}

func (s *S) fileIOUnderDeferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.ReadFile("x") // want `file I/O`
}

func (s *S) cleanAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(1) // clean: lock released first
}

func (s *S) rpcUnderReadLock() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.c.Call("m", 1, nil)                  // want `an RPC round-trip`
	s.c.CallTail("m", 1, nil, nil, 0, nil) // want `an RPC round-trip`
}

func (s *S) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *S) nonBlockingSendClean() {
	s.mu.Lock()
	select {
	case s.ch <- 1: // clean: select comm clauses are the fix, not the bug
	default:
	}
	s.mu.Unlock()
}

func (s *S) receiveUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while s\.mu is held`
}

func (s *S) nonBlockingReceiveClean() {
	s.mu.Lock()
	select {
	case <-s.ch: // clean: with a default the receive cannot park
	default:
	}
	s.mu.Unlock()
}

func (s *S) selectUnderLock(stop chan struct{}) {
	s.mu.Lock()
	select { // want `select without default while s\.mu is held`
	case <-s.ch:
	case <-stop:
	}
	s.mu.Unlock()
}

// parkedOutsideLockClean is the long-poll shape: drop the lock, park,
// retake it.
func (s *S) parkedOutsideLockClean(stop chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		s.mu.Unlock()
		select {
		case <-s.ch: // clean: the lock was released before parking
		case <-stop:
		}
		s.mu.Lock()
	}
}

func (s *S) unlockedBranchClean(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		time.Sleep(1) // clean: this path released the lock
		return
	}
	s.mu.Unlock()
	time.Sleep(1) // clean: sequential release
}

func (s *S) heldOnOnePath(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
	}
	time.Sleep(1) // want `while s\.mu is held`
	if !cond {
		s.mu.Unlock()
	}
}

// dialHelper exists to prove same-package transitive propagation: the
// dial is one call deep.
func (s *S) dialHelper() {
	rpcnet.Dial("x")
}

func (s *S) blockingViaHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dialHelper() // want `network I/O via Dial`
}

func (s *S) goroutineClean() {
	s.mu.Lock()
	go func() {
		time.Sleep(1) // clean: runs on its own goroutine
	}()
	s.mu.Unlock()
}

func (s *S) suppressed() {
	s.mu.Lock()
	time.Sleep(1) //hetlint:ignore lockheldcall fixture: proves the directive works
	s.mu.Unlock()
}

func (s *S) loopBodyCaught() {
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		time.Sleep(1) // want `while s\.mu is held`
	}
	s.mu.Unlock()
}

func (s *S) otherLockOtherMutex(t *S) {
	s.mu.Lock()
	s.mu.Unlock()
	t.mu.Lock()
	time.Sleep(1) // want `while t\.mu is held`
	t.mu.Unlock()
}
