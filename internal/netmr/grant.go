package netmr

import (
	"slices"
	"time"

	"hetmr/internal/sched"
)

// grantTasks is the grant pass of one heartbeat: up to args.FreeSlots
// tasks for the heartbeating tracker (device is its device kind), as a
// function of the admission state, the job table and the time — no
// lock of its own, no I/O.
//
// Work is handed out slot by slot under weighted deficit round-robin
// across tenants. Each free slot picks the eligible tenant with the
// largest fair-share deficit (credit accrues in proportion to
// configured weight), then serves that tenant's oldest job with work,
// preferring boards whose device affinity matches this tracker — an
// accelerated job's map tasks land on accelerated trackers while
// matching work remains, but a mismatched tracker still takes work
// before idling (host trackers fall back to accelerated tasks via the
// bit-identical host kernel). Within a board, data-local map tasks go
// first (a replica on the tracker's co-located DataNode — the paper's
// "tries to minimize the number of remote block accesses"); reduce tasks
// join the pool once every map partition is in place. A tenant with no
// grantable work drops out of the round and resets its deficit (the DRR
// empty-queue rule), so credit never accumulates while idle.
//
// Only when every tenant's pending work is exhausted do the remaining
// slots fill with speculative duplicates of the longest-running
// in-flight tasks, again arbitrated by deficit — speculation is what
// idle capacity does, never what starves another tenant's real work.
func grantTasks(adm *admission, jobs map[int64]*jobRecord, device string, args HeartbeatArgs, now time.Time) []Task {
	var tasks []Task
	for _, speculative := range [2]bool{false, true} {
		eligible := adm.eligible(args.TrackerID, now, jobs)
		for len(tasks) < args.FreeSlots && len(eligible) > 0 {
			name := adm.fair.Pick(eligible)
			task, ok := grantOne(adm.tenants[name], jobs, device, args, now, speculative)
			if ok {
				adm.charge(name)
				tasks = append(tasks, task)
				continue
			}
			if !speculative {
				// Not in the speculative pass: a tenant may have pending
				// work gated on map completion; having no straggler to
				// duplicate must not zero its credit.
				adm.fair.Idle(name)
			}
			eligible = slices.DeleteFunc(eligible, func(t string) bool { return t == name })
		}
	}
	return tasks
}

// grantOne hands out one task of the tenant's oldest job with work. A
// pending task comes first from boards whose affinity matches the
// tracker's device, then from any board; a speculative one is a
// duplicate of the job's longest-running in-flight task.
func grantOne(ts *tenantState, jobs map[int64]*jobRecord, device string, args HeartbeatArgs, now time.Time, speculative bool) (Task, bool) {
	oldestWithWork := func(affinityOnly bool) (Task, bool) {
		for _, id := range ts.jobs {
			if t, ok := jobs[id].grant(device, args, now, speculative, affinityOnly); ok {
				return t, true
			}
		}
		return Task{}, false
	}
	if !speculative {
		if t, ok := oldestWithWork(true); ok {
			return t, true
		}
	}
	return oldestWithWork(false)
}

// grant tries to hand the heartbeating tracker one task of rec, phase
// by phase; a phase opens once the one before it is complete. With
// affinityOnly set only boards matching the tracker's device are
// considered.
func (rec *jobRecord) grant(device string, args HeartbeatArgs, now time.Time, speculative, affinityOnly bool) (Task, bool) {
	for pi := range rec.phases {
		ph := &rec.phases[pi]
		if pi > 0 && !rec.phases[pi-1].complete() {
			break
		}
		if affinityOnly && ph.board.Affinity() != device {
			continue
		}
		var is []int
		if speculative {
			is = ph.board.Speculate(args.TrackerID, 1, now)
		} else {
			is = ph.board.Assign(args.TrackerID, 1, now, func(i int) sched.Locality { return rec.locality(pi, i, &args) })
		}
		if len(is) == 1 {
			return rec.task(pi, is[0]), true
		}
	}
	return Task{}, false
}

// locality grades task i of phase pi for the heartbeating tracker. Map
// tasks: node-local (a replica on the tracker's co-located DataNode)
// first, then remote — the paper's "minimize the number of remote block
// accesses". Reduce tasks: the partition whose bytes mostly live in
// this tracker's own shuffle store first, so the heaviest fetch stream
// becomes a local read instead of a network pull. Everything is remote
// when there is nothing to grade by: a compute task, a tracker that
// named no DataNode, a reduce phase with no plan.
func (rec *jobRecord) locality(pi, i int, args *HeartbeatArgs) sched.Locality {
	if pi > 0 {
		if rec.redHome != nil && args.ShuffleAddr != "" && rec.redHome[i] == args.ShuffleAddr {
			return sched.LocalityNode
		}
		return sched.LocalityRemote
	}
	blk := rec.phases[0].tasks[i].Block
	if args.LocalDataNode != "" && slices.Contains(blk.Replicas, args.LocalDataNode) {
		return sched.LocalityNode
	}
	return sched.LocalityRemote
}
