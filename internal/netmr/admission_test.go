package netmr

import (
	"errors"
	"slices"
	"testing"

	"hetmr/internal/sched"
)

// Admission is driven here against a hand-made job table: records are
// literals (or opened over made-up tasks when a board matters), held
// bytes are reported as maps, and the clock is a value.

// tenantJob is the least a job-table entry needs for admission: whose
// it is.
func tenantJob(id int64, tenant string) *jobRecord {
	return &jobRecord{id: id, tenant: tenant}
}

func TestAdmitRejectsAtMaxJobsAndQueuesUpToMaxQueued(t *testing.T) {
	jobs := map[int64]*jobRecord{}
	a := newAdmission()

	// No wait line: the job past MaxJobs is rejected, nothing recorded.
	a.setQuota("strict", Quota{MaxJobs: 1}, jobs)
	if err := a.admit("strict", 1, jobs); err != nil {
		t.Fatal(err)
	}
	err := a.admit("strict", 2, jobs)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second job under MaxJobs 1: err = %v, want ErrQuotaExceeded", err)
	}
	if ts := a.tenants["strict"]; !slices.Equal(ts.jobs, []int64{1}) || len(ts.queue) != 0 {
		t.Errorf("after the rejection: jobs %v queue %v, want [1] and empty", ts.jobs, ts.queue)
	}

	// A wait line: the excess queues in order, and only a full line rejects.
	a.setQuota("patient", Quota{MaxJobs: 1, MaxQueued: 2}, jobs)
	for id := int64(10); id <= 12; id++ {
		if err := a.admit("patient", id, jobs); err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
	}
	if err := a.admit("patient", 13, jobs); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("job past a full queue: err = %v, want ErrQuotaExceeded", err)
	}
	ts := a.tenants["patient"]
	if !slices.Equal(ts.jobs, []int64{10}) || !slices.Equal(ts.queue, []int64{11, 12}) {
		t.Fatalf("jobs %v queue %v, want [10] and [11 12]", ts.jobs, ts.queue)
	}

	// finish frees a slot: the oldest queued job promotes, the rest wait.
	a.finish("patient", 10, jobs)
	if !slices.Equal(ts.jobs, []int64{11}) || !slices.Equal(ts.queue, []int64{12}) {
		t.Fatalf("after finish(10): jobs %v queue %v, want [11] and [12]", ts.jobs, ts.queue)
	}
	// Killing a queued job just leaves the line.
	a.finish("patient", 12, jobs)
	if !slices.Equal(ts.jobs, []int64{11}) || len(ts.queue) != 0 {
		t.Fatalf("after finish(12): jobs %v queue %v, want [11] and empty", ts.jobs, ts.queue)
	}
	// A raised limit promotes at once.
	if err := a.admit("patient", 14, jobs); err != nil || !slices.Equal(ts.queue, []int64{14}) {
		t.Fatalf("job 14: err %v queue %v, want it queued", err, ts.queue)
	}
	a.setQuota("patient", Quota{MaxJobs: 2, MaxQueued: 2}, jobs)
	if !slices.Equal(ts.jobs, []int64{11, 14}) {
		t.Errorf("after raising MaxJobs: jobs %v, want [11 14]", ts.jobs)
	}
}

func TestSpillBudgetQueuesUntilHeldBytesFree(t *testing.T) {
	jobs := map[int64]*jobRecord{1: tenantJob(1, "a"), 2: tenantJob(2, "a"), 9: tenantJob(9, "other")}
	a := newAdmission()
	a.setQuota("a", Quota{SpillBytes: 100, MaxQueued: 1}, jobs)
	if err := a.admit("a", 1, jobs); err != nil {
		t.Fatal(err)
	}
	// Two trackers hold 120 bytes of a's job between them; another
	// tenant's bytes and a forgotten job's do not count.
	a.report("t0", map[int64]int64{1: 70, 9: 1000, 77: 1000}, jobs)
	a.report("t1", map[int64]int64{1: 50}, jobs)
	if got := a.heldBytes("a", jobs); got != 120 {
		t.Fatalf("heldBytes = %d, want 120", got)
	}
	if err := a.admit("a", 2, jobs); err != nil {
		t.Fatalf("over-budget job with a wait line: %v", err)
	}
	if err := a.admit("a", 3, jobs); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-budget job past the wait line: err = %v", err)
	}
	ts := a.tenants["a"]
	if !slices.Equal(ts.queue, []int64{2}) {
		t.Fatalf("queue = %v, want [2]", ts.queue)
	}
	// One tracker purging is not enough headroom; both are.
	a.report("t1", nil, jobs)
	if len(ts.queue) != 0 || !slices.Equal(ts.jobs, []int64{1, 2}) {
		t.Fatalf("at 70 of 100 bytes: jobs %v queue %v, want the queued job promoted", ts.jobs, ts.queue)
	}
	if st := a.stats(jobs)["a"]; st.ActiveJobs != 2 || st.HeldBytes != 70 || st.Weight != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFinishIdlesAnEmptiedTenant(t *testing.T) {
	jobs := map[int64]*jobRecord{}
	a := newAdmission()
	a.admit("a", 1, jobs)
	a.admit("b", 2, jobs)
	// One contended round: both refill to a full credit, a spends its.
	if got := a.fair.Pick([]string{"a", "b"}); got != "a" {
		t.Fatalf("first pick = %q, want a (the tie-break)", got)
	}
	a.charge("a")
	// b banked a credit. Its last job finishing must zero it (the DRR
	// empty-queue rule): the next round is a tie again, not b's.
	a.finish("b", 2, jobs)
	a.admit("b", 3, jobs)
	if got := a.fair.Pick([]string{"a", "b"}); got != "a" {
		t.Errorf("pick after b emptied = %q, want a: b kept credit across its idle stretch", got)
	}
	if a.tenants["a"].granted != 1 {
		t.Errorf("a.granted = %d, want 1", a.tenants["a"].granted)
	}
}

func TestEligibleHonoursMaxTrackers(t *testing.T) {
	capped := openJob(t, 1, JobSpec{Kernel: "pi", Tenant: "capped", Samples: 10}, 4, sched.Options{})
	free := openJob(t, 2, JobSpec{Kernel: "pi", Tenant: "free", Samples: 10}, 4, sched.Options{})
	jobs := map[int64]*jobRecord{1: capped, 2: free}
	a := newAdmission()
	a.setQuota("capped", Quota{MaxTrackers: 1}, jobs)
	a.setQuota("idle", Quota{}, jobs)
	a.admit("capped", 1, jobs)
	a.admit("free", 2, jobs)

	if got := a.eligible("t0", testEpoch, jobs); !slices.Equal(got, []string{"capped", "free"}) {
		t.Fatalf("eligible with nothing in flight = %v, want [capped free] (sorted, no idle tenant)", got)
	}
	capped.phases[0].board.Assign("t0", 1, testEpoch, nil)
	if got := a.eligible("t1", testEpoch, jobs); !slices.Equal(got, []string{"free"}) {
		t.Errorf("eligible for a second tracker = %v, want the capped tenant left out", got)
	}
	if got := a.eligible("t0", testEpoch, jobs); !slices.Equal(got, []string{"capped", "free"}) {
		t.Errorf("eligible for the tracker already running its work = %v, want it kept", got)
	}
	// Once the lease runs out the attempt no longer counts.
	if got := a.eligible("t1", testEpoch.Add(2*testLease), jobs); !slices.Equal(got, []string{"capped", "free"}) {
		t.Errorf("eligible after the lease expired = %v", got)
	}
}
