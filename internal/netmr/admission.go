package netmr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"hetmr/internal/metrics"
	"hetmr/internal/sched"
)

// ErrQuotaExceeded is the typed admission-control rejection: a Submit
// that would push its tenant past a configured quota (concurrent jobs
// or spill budget) fails with an error wrapping this sentinel, both at
// the JobTracker handler and — rewrapped across the RPC boundary — at
// Client.Submit.
var ErrQuotaExceeded = errors.New("netmr: tenant quota exceeded")

// tenantState is one tenant's slice of the multi-tenant service: its
// quota, its active jobs in submission order (each an unfinished record
// in the job table), an admission queue of over-quota submissions
// waiting to promote, and a cumulative grant counter for fair-share
// observability.
type tenantState struct {
	quota   Quota
	jobs    []int64 // active job IDs, oldest first
	queue   []int64 // queued (over-quota) job IDs, oldest first
	granted int64   // cumulative task grants (incl. speculative)
}

// TenantStat is one tenant's scheduling and accounting view, as
// reported by TenantStats.
type TenantStat struct {
	Weight     float64 // fair-share weight (>= 1 nominal unit)
	ActiveJobs int     // jobs submitted and not yet terminal
	Granted    int64   // cumulative task grants across all heartbeats
	HeldBytes  int64   // resident shuffle/spill bytes across trackers
}

// admission is the JobTracker's multi-tenant front door: tenants and
// their quotas, the over-quota queues, the trackers' held-bytes reports
// a spill budget is checked against, and the fair-share arbiter the
// grant pass asks whom to serve. It reads the job table (passed in, to
// learn a job's tenant and its boards' live attempts) and never writes
// it. Like every JobTracker component it holds no lock of its own
// (jt.mu guards it), does no I/O, and takes the current time as a
// parameter.
type admission struct {
	tenants map[string]*tenantState
	fair    *sched.FairShare
	held    map[string]map[int64]int64 // tracker ID -> job -> resident store bytes
}

func newAdmission() *admission {
	return &admission{
		tenants: make(map[string]*tenantState),
		fair:    sched.NewFairShare(),
		held:    make(map[string]map[int64]int64),
	}
}

// tenant returns name's state, creating it on first sight.
func (a *admission) tenant(name string) *tenantState {
	ts := a.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		a.tenants[name] = ts
		a.fair.SetWeight(name, 1)
	}
	return ts
}

// setQuota installs (or replaces) a tenant's quota and weight; a raised
// limit may open headroom for queued submissions.
func (a *admission) setQuota(name string, q Quota, jobs map[int64]*jobRecord) {
	a.tenant(name).quota = q
	a.fair.SetWeight(name, q.Weight)
	a.promote(name, jobs)
}

// heldBytes sums the resident store bytes trackers reported for the
// tenant's jobs — the figure a SpillBytes quota bounds.
func (a *admission) heldBytes(name string, jobs map[int64]*jobRecord) int64 {
	var total int64
	for _, byJob := range a.held {
		for id, n := range byJob {
			if rec, ok := jobs[id]; ok && rec.tenant == name {
				total += n
			}
		}
	}
	return total
}

// over reports which of the tenant's admission limits it sits at right
// now — the concurrent-job cap, the spill budget — and the held bytes
// behind the latter.
func (a *admission) over(name string, jobs map[int64]*jobRecord) (overJobs, overSpill bool, held int64) {
	ts := a.tenants[name]
	overJobs = ts.quota.MaxJobs > 0 && len(ts.jobs) >= ts.quota.MaxJobs
	if ts.quota.SpillBytes > 0 {
		held = a.heldBytes(name, jobs)
		overSpill = held >= ts.quota.SpillBytes
	}
	return overJobs, overSpill, held
}

// admit enrolls job id under its tenant: active when the tenant has
// headroom; behind the running jobs when it does not but opted into a
// wait line (Quota.MaxQueued) with room left; otherwise rejected with
// an error wrapping ErrQuotaExceeded and nothing recorded.
func (a *admission) admit(name string, id int64, jobs map[int64]*jobRecord) error {
	ts := a.tenant(name)
	overJobs, overSpill, held := a.over(name, jobs)
	switch {
	case !overJobs && !overSpill:
		ts.jobs = append(ts.jobs, id)
	case len(ts.queue) < ts.quota.MaxQueued:
		ts.queue = append(ts.queue, id)
	case overJobs:
		metrics.QuotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q already runs %d of %d jobs",
			ErrQuotaExceeded, name, len(ts.jobs), ts.quota.MaxJobs)
	default:
		metrics.QuotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q holds %d of %d spill-budget bytes",
			ErrQuotaExceeded, name, held, ts.quota.SpillBytes)
	}
	return nil
}

// finish deregisters a job that turned terminal from its tenant's
// active (or queued) list; freed quota promotes queued submissions, and
// an emptied tenant resets its fair-share deficit (the DRR empty-queue
// rule).
func (a *admission) finish(name string, id int64, jobs map[int64]*jobRecord) {
	ts := a.tenant(name)
	ts.jobs = slices.DeleteFunc(ts.jobs, func(j int64) bool { return j == id })
	ts.queue = slices.DeleteFunc(ts.queue, func(j int64) bool { return j == id })
	a.promote(name, jobs)
	if len(ts.jobs) == 0 {
		a.fair.Idle(name)
	}
}

// promote moves the tenant's queued submissions to its active list,
// oldest first, while quota headroom lasts.
func (a *admission) promote(name string, jobs map[int64]*jobRecord) {
	ts := a.tenant(name)
	for len(ts.queue) > 0 {
		if overJobs, overSpill, _ := a.over(name, jobs); overJobs || overSpill {
			return
		}
		ts.jobs = append(ts.jobs, ts.queue[0])
		ts.queue = ts.queue[1:]
	}
}

// report refreshes one tracker's resident-bytes report. Per-tenant sums
// of these feed the spill-budget check, so freed bytes may promote
// queued jobs.
func (a *admission) report(trackerID string, heldBytes map[int64]int64, jobs map[int64]*jobRecord) {
	if len(heldBytes) > 0 {
		a.held[trackerID] = heldBytes
	} else {
		delete(a.held, trackerID)
	}
	for name, ts := range a.tenants {
		if len(ts.queue) > 0 {
			a.promote(name, jobs)
		}
	}
}

// eligible lists the tenants the fair-share pass may serve on this
// heartbeat, sorted for determinism: those with active jobs, excluding
// any at its MaxTrackers cap unless trackerID already runs its work
// (granting there adds no tracker to the tenant's footprint).
func (a *admission) eligible(trackerID string, now time.Time, jobs map[int64]*jobRecord) []string {
	var out []string
	for name, ts := range a.tenants {
		if len(ts.jobs) == 0 {
			continue
		}
		if ts.quota.MaxTrackers > 0 {
			// The trackers holding live (unexpired) attempts of the
			// tenant's jobs.
			live := make(map[string]bool)
			for _, id := range ts.jobs {
				for _, ph := range jobs[id].phases {
					for w := range ph.board.LiveWorkers(now) {
						live[w] = true
					}
				}
			}
			if len(live) >= ts.quota.MaxTrackers && !live[trackerID] {
				continue
			}
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// charge books one task grant against the tenant.
func (a *admission) charge(name string) {
	a.fair.Charge(name)
	a.tenants[name].granted++
}

// stats reports every known tenant's scheduling and accounting state.
func (a *admission) stats(jobs map[int64]*jobRecord) map[string]TenantStat {
	out := make(map[string]TenantStat, len(a.tenants))
	for name, ts := range a.tenants {
		out[name] = TenantStat{
			Weight:     a.fair.Weight(name),
			ActiveJobs: len(ts.jobs),
			Granted:    ts.granted,
			HeldBytes:  a.heldBytes(name, jobs),
		}
	}
	return out
}
