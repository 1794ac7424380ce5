package netmr

import (
	"testing"
	"time"
)

// The roster is driven here with explicit clock values and nothing
// else: no daemon, no socket, no sleep.

func rosterIDs[T any](r *roster[T]) []string {
	var ids []string
	for _, m := range r.list() {
		ids = append(ids, m.id+":"+m.state())
	}
	return ids
}

func TestRosterJoinExpireRejoin(t *testing.T) {
	const deadAfter = 3 * time.Second
	t0 := time.Unix(1000, 0)
	r := newRoster[dnState]()
	r.beat("b", t0)
	r.beat("a", t0.Add(time.Second))
	if got := rosterIDs(r); len(got) != 2 || got[0] != "b:alive" || got[1] != "a:alive" {
		t.Fatalf("list = %v, want join order [b:alive a:alive]", got)
	}

	// Silent for exactly DeadAfter is still alive; one tick past is dead.
	if gone := r.expire(t0.Add(deadAfter), deadAfter); len(gone) != 0 {
		t.Fatalf("expire at exactly DeadAfter declared %d members dead", len(gone))
	}
	gone := r.expire(t0.Add(deadAfter+time.Nanosecond), deadAfter)
	if len(gone) != 1 || gone[0].id != "b" || gone[0].state() != NodeDead {
		t.Fatalf("expire just past DeadAfter = %v, want [b] dead", gone)
	}
	if gone[0].placeable() {
		t.Error("a dead member is placeable")
	}
	// Already-dead members are not reported twice, and a zero DeadAfter
	// disables detection altogether.
	if again := r.expire(t0.Add(time.Hour), deadAfter); len(again) != 1 || again[0].id != "a" {
		t.Fatalf("second expire = %v, want only the newly dead [a]", again)
	}
	if off := newRoster[dnState](); off.beat("x", t0) == nil || len(off.expire(t0.Add(time.Hour), 0)) != 0 {
		t.Error("expire with DeadAfter 0 declared a member dead")
	}

	// A beat after a declared death rejoins the same row.
	row := r.members["b"]
	row.info.load = 7
	if back := r.beat("b", t0.Add(2*time.Hour)); back != row || back.dead || back.info.load != 7 {
		t.Fatalf("rejoin = %+v, want the same row alive with its columns kept", back)
	}
	if got := rosterIDs(r); got[0] != "b:alive" || got[1] != "a:dead" {
		t.Fatalf("list after rejoin = %v", got)
	}
}

func TestRosterDrainAndRetire(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := newRoster[trackerState]()
	r.beat("t0", t0)
	r.beat("t1", t0)
	if r.drain("nobody") != nil {
		t.Error("drain of an unknown ID returned a member")
	}
	m := r.drain("t0")
	if m == nil || m.state() != NodeDraining || m.placeable() {
		t.Fatalf("drain = %+v, want t0 draining and not placeable", m)
	}
	// Draining survives beats; death outranks it in the reported state.
	if r.beat("t0", t0.Add(time.Second)); m.state() != NodeDraining {
		t.Errorf("state after a beat = %s, want still draining", m.state())
	}
	r.expire(t0.Add(time.Minute), time.Second)
	if m.state() != NodeDead {
		t.Errorf("state of a silent draining member = %s, want dead", m.state())
	}

	r.retire("t0")
	if got := rosterIDs(r); len(got) != 1 || got[0] != "t1:dead" {
		t.Fatalf("list after retire = %v, want only t1", got)
	}
	if r.beat("t0", t0.Add(time.Hour)) != nil {
		t.Error("a retired ID's beat was accepted")
	}
	if _, back := r.members["t0"]; back {
		t.Error("a refused beat re-created the retired row")
	}
}
