package netmr

import (
	"slices"
	"sync"
	"time"
)

// Node lifecycle states, shared by the NameNode's DataNode view and
// the JobTracker's tracker view.
const (
	// NodeAlive is a member heartbeating normally.
	NodeAlive = "alive"
	// NodeDraining is a member being decommissioned: it keeps serving
	// but receives no new placements or tasks.
	NodeDraining = "draining"
	// NodeDead is a member that missed its liveness deadline; it
	// rejoins as alive on its next heartbeat.
	NodeDead = "dead"
)

// member is one row of a master's membership table: the columns every
// member has, plus the master's own in info.
type member[T any] struct {
	id       string
	lastSeen time.Time
	draining bool
	dead     bool
	info     T
}

func (m *member[T]) state() string {
	switch {
	case m.dead:
		return NodeDead
	case m.draining:
		return NodeDraining
	default:
		return NodeAlive
	}
}

// placeable reports whether new work or replicas may land on the
// member.
func (m *member[T]) placeable() bool { return !m.dead && !m.draining }

// roster is a master's membership table, built entirely from its
// members' heartbeats: the NameNode keeps one of DataNodes, the
// JobTracker one of TaskTrackers. Like every master component it holds
// no lock of its own (the master's mutex guards it), does no I/O, and
// takes the current time as a parameter.
type roster[T any] struct {
	members map[string]*member[T]
	order   []string // join order: deterministic placement and listing
	// retired holds decommissioned IDs: their beats are refused, or a
	// retired node still running would rejoin on its next beat, empty,
	// moments after its state was moved off it.
	retired map[string]bool
}

func newRoster[T any]() *roster[T] {
	return &roster[T]{members: make(map[string]*member[T]), retired: make(map[string]bool)}
}

// beat records a heartbeat: the first one registers the member, every
// one refreshes its liveness, and one after a declared death rejoins it
// cleanly. A retired ID gets nil.
func (r *roster[T]) beat(id string, now time.Time) *member[T] {
	if r.retired[id] {
		return nil
	}
	m := r.members[id]
	if m == nil {
		m = &member[T]{id: id}
		r.members[id] = m
		r.order = append(r.order, id)
	}
	m.lastSeen = now
	m.dead = false
	return m
}

// expire declares dead every member silent for longer than after and
// returns the newly dead, in join order. A non-positive after disables
// detection.
func (r *roster[T]) expire(now time.Time, after time.Duration) []*member[T] {
	if after <= 0 {
		return nil
	}
	var gone []*member[T]
	for _, id := range r.order {
		if m := r.members[id]; !m.dead && now.Sub(m.lastSeen) > after {
			m.dead = true
			gone = append(gone, m)
		}
	}
	return gone
}

// drain marks a member draining and returns it, or nil for an unknown
// ID.
func (r *roster[T]) drain(id string) *member[T] {
	m := r.members[id]
	if m != nil {
		m.draining = true
	}
	return m
}

// retire drops a member from the table for good: later beats from its
// ID are refused.
func (r *roster[T]) retire(id string) {
	delete(r.members, id)
	r.retired[id] = true
	r.order = slices.DeleteFunc(r.order, func(o string) bool { return o == id })
}

// list returns the members in join order.
func (r *roster[T]) list() []*member[T] {
	out := make([]*member[T], len(r.order))
	for i, id := range r.order {
		out[i] = r.members[id]
	}
	return out
}

// park is a master's held call: it releases mu until wake or stop
// closes or hold (capped at maxStatusHold) passes, then retakes it.
func park(mu *sync.Mutex, hold time.Duration, wake, stop <-chan struct{}) {
	mu.Unlock()
	defer mu.Lock()
	timer := time.NewTimer(min(hold, maxStatusHold))
	defer timer.Stop()
	select {
	case <-wake:
	case <-timer.C:
	case <-stop:
	}
}

// sweepInterval paces the masters' liveness sweeps; fine-grained enough
// for the millisecond heartbeats tests run, cheap enough to always tick.
const sweepInterval = 20 * time.Millisecond

// background is the goroutine a daemon owns. halt asks it to stop —
// once, however often and from however many goroutines it is called —
// and returns when it has exited.
type background struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// goBackground runs body on its own goroutine; body returns when stop
// closes (or earlier, of its own accord).
func goBackground(body func(stop <-chan struct{})) *background {
	b := &background{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		body(b.stop)
	}()
	return b
}

// every runs tick, handing it the wall clock, at once and then each
// interval until halted: the masters' liveness sweeps and the
// DataNode's beat.
func every(interval time.Duration, tick func(now time.Time)) *background {
	return goBackground(func(stop <-chan struct{}) {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for tick(time.Now()); ; {
			select {
			case <-stop:
				return
			case <-ticker.C:
				tick(time.Now())
			}
		}
	})
}

func (b *background) halt() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}
