package sim

import (
	"strings"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * Second)
		wake = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 3*Second {
		t.Errorf("woke at %v, want 3s", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Spawn("seq", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Second)
			marks = append(marks, p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, m := range marks {
		if m != Time(i+1)*Second {
			t.Errorf("mark %d at %v, want %ds", i, m, i+1)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine(1)
	var log []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(Second)
		log = append(log, "a1")
		p.Sleep(2 * Second)
		log = append(log, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Second)
		log = append(log, "b2")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(log, ",")
	if got != "a1,b2,a3" {
		t.Errorf("interleaving = %q, want a1,b2,a3", got)
	}
}

func TestSleepUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.SleepUntil(5 * Second)
		p.SleepUntil(Second) // in the past: no-op
		at = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Second {
		t.Errorf("finished at %v, want 5s", at)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Second)
			childTime = c.Now()
		})
		p.Sleep(5 * Second)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*Second {
		t.Errorf("child finished at %v, want 2s", childTime)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.At(Second, func() {
		if q.Len() != 3 {
			t.Errorf("queue len = %d, want 3", q.Len())
		}
		q.WakeAll()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "xyz" {
		t.Errorf("wake order = %v, want x,y,z", order)
	}
}

func TestWakeOneOnly(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	e.At(Second, func() { q.WakeOne() })
	// The other two remain blocked: expect a deadlock report.
	_, err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error with two blocked processes")
	}
	if woken != 1 {
		t.Errorf("woken = %d, want 1", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestGate(t *testing.T) {
	e := NewEngine(1)
	var g Gate
	passed := 0
	for i := 0; i < 4; i++ {
		e.Spawn("g", func(p *Proc) {
			g.Wait(p)
			passed++
		})
	}
	e.At(2*Second, func() { g.Open() })
	// Late waiter after the gate opened must pass immediately.
	e.At(3*Second, func() {
		e.Spawn("late", func(p *Proc) {
			g.Wait(p)
			passed++
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if passed != 5 {
		t.Errorf("passed = %d, want 5", passed)
	}
	if !g.IsOpen() {
		t.Error("gate should be open")
	}
}
