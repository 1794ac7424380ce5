package netmr

import (
	"slices"
	"testing"
	"time"

	"hetmr/internal/sched"
)

// The grant pass is a function of (admission, jobs, device, heartbeat,
// now): these tests hand it exactly that and read the tasks back.

// grantTable admits the given opened records into a fresh admission
// state and returns it with the job table.
func grantTable(recs ...*jobRecord) (*admission, map[int64]*jobRecord) {
	adm, jobs := newAdmission(), make(map[int64]*jobRecord)
	for _, rec := range recs {
		jobs[rec.id] = rec
		adm.admit(rec.tenant, rec.id, jobs)
	}
	return adm, jobs
}

func taskIDs(tasks []Task) (ids []int) {
	for _, t := range tasks {
		ids = append(ids, t.TaskID)
	}
	return ids
}

func jobIDs(tasks []Task) (ids []int64) {
	for _, t := range tasks {
		ids = append(ids, t.JobID)
	}
	return ids
}

func TestGrantAffinityPassComesBeforeAnyBoard(t *testing.T) {
	// The older job offloads (its map board prefers cell trackers), the
	// newer one is a host job: a host tracker takes the newer job's
	// matching work first and falls back to the older job's only when
	// nothing matches; a cell tracker does the reverse.
	accel := openJob(t, 1, JobSpec{Kernel: "pi", Samples: 10, Mapper: MapperCell}, 2, sched.Options{})
	host := openJob(t, 2, JobSpec{Kernel: "pi", Samples: 10, Mapper: MapperJava}, 2, sched.Options{})
	adm, jobs := grantTable(accel, host)

	got := grantTasks(adm, jobs, DeviceHost, HeartbeatArgs{TrackerID: "h", FreeSlots: 3}, testEpoch)
	if !slices.Equal(jobIDs(got), []int64{2, 2, 1}) {
		t.Errorf("host tracker was granted from jobs %v, want [2 2 1]: matching boards first, then any", jobIDs(got))
	}
	got = grantTasks(adm, jobs, DeviceCell, HeartbeatArgs{TrackerID: "c", FreeSlots: 3}, testEpoch)
	if !slices.Equal(jobIDs(got), []int64{1}) {
		t.Errorf("cell tracker was granted from jobs %v, want the one task left, of job 1", jobIDs(got))
	}
	if g := adm.tenants[DefaultTenant].granted; g != 4 {
		t.Errorf("granted = %d, want 4", g)
	}
	if more := grantTasks(adm, jobs, DeviceHost, HeartbeatArgs{TrackerID: "h", FreeSlots: 1}, testEpoch); len(more) != 0 {
		t.Errorf("granted %v with nothing pending and speculation off", more)
	}
}

func TestGrantLocalityNodeThenRemote(t *testing.T) {
	blocks := []BlockInfo{
		{ID: 0, Replicas: []string{"dn-far"}},
		{ID: 1, Replicas: []string{"dn-near"}},
		{ID: 2, Replicas: []string{"dn-mine", "dn-far"}},
	}
	rec := openJob(t, 1, JobSpec{Kernel: "aes-ctr", Input: "/f", Mapper: MapperJava}, 3, sched.Options{}, blocks...)
	adm, jobs := grantTable(rec)
	beat := HeartbeatArgs{TrackerID: "t", LocalDataNode: "dn-mine", FreeSlots: 1}
	var order []int
	for range blocks {
		order = append(order, taskIDs(grantTasks(adm, jobs, DeviceHost, beat, testEpoch))...)
	}
	if !slices.Equal(order, []int{2, 0, 1}) {
		t.Errorf("grant order = %v, want [2 0 1]: node-local, then remote in task order", order)
	}

	// Reduce tasks: the partition whose bytes mostly sit in the asking
	// tracker's own store goes to it first, whatever the LPT order says.
	shuffle := openJob(t, 2, JobSpec{Kernel: "wordcount", Input: "/f", NumReducers: 2, Mapper: MapperJava}, 2, sched.Options{})
	shuffle.phases[0].board.Assign("m", 2, testEpoch, nil)
	shuffle.record("m", TaskResult{TaskID: 0, ShuffleAddr: "store-a", PartBytes: []int64{10, 900}})
	shuffle.record("m", TaskResult{TaskID: 1, ShuffleAddr: "store-b", PartBytes: []int64{500, 20}})
	adm, jobs = grantTable(shuffle)
	got := grantTasks(adm, jobs, DeviceHost, HeartbeatArgs{TrackerID: "b", ShuffleAddr: "store-b", FreeSlots: 1}, testEpoch)
	if len(got) != 1 || !got[0].Reduce || got[0].TaskID != 0 {
		t.Fatalf("store-b's tracker was granted %+v, want reduce 0 (its 500 bytes live there)", got)
	}
	if got[0].Inputs[1].Addr != "store-b" {
		t.Errorf("reduce inputs = %+v, want the map output locations", got[0].Inputs)
	}
}

func TestGrantMaxTrackersCap(t *testing.T) {
	rec := openJob(t, 1, JobSpec{Kernel: "pi", Tenant: "capped", Samples: 10}, 4, sched.Options{})
	adm, jobs := grantTable(rec)
	adm.setQuota("capped", Quota{MaxTrackers: 1}, jobs)
	if got := grantTasks(adm, jobs, DeviceCell, HeartbeatArgs{TrackerID: "t0", FreeSlots: 1}, testEpoch); len(got) != 1 {
		t.Fatalf("first tracker got %d tasks, want 1", len(got))
	}
	if got := grantTasks(adm, jobs, DeviceCell, HeartbeatArgs{TrackerID: "t1", FreeSlots: 2}, testEpoch); len(got) != 0 {
		t.Errorf("a second tracker got %d tasks past MaxTrackers 1", len(got))
	}
	if got := grantTasks(adm, jobs, DeviceCell, HeartbeatArgs{TrackerID: "t0", FreeSlots: 2}, testEpoch); len(got) != 2 {
		t.Errorf("the tracker already inside the cap got %d more tasks, want 2", len(got))
	}
}

func TestSpeculationOnlyAfterEveryTenantsPendingWork(t *testing.T) {
	spec := sched.Options{Speculative: true}
	// Tenant a: one task, already running elsewhere for a long while — a
	// straggler to duplicate, nothing pending. Tenant b: pending work.
	a := openJob(t, 1, JobSpec{Kernel: "pi", Tenant: "a", Samples: 10}, 1, spec)
	b := openJob(t, 2, JobSpec{Kernel: "pi", Tenant: "b", Samples: 10}, 2, spec)
	adm, jobs := grantTable(a, b)
	a.phases[0].board.Assign("slow", 1, testEpoch, nil)
	now := testEpoch.Add(10 * time.Second)

	got := grantTasks(adm, jobs, DeviceCell, HeartbeatArgs{TrackerID: "idle", FreeSlots: 3}, now)
	if !slices.Equal(jobIDs(got), []int64{2, 2, 1}) {
		t.Fatalf("granted from jobs %v, want [2 2 1]: b's pending work, and only then a's duplicate", jobIDs(got))
	}
	if n := a.phases[0].board.Attempts(); n != 2 {
		t.Errorf("job 1 attempts = %d, want the original and one speculative duplicate", n)
	}

	// A shuffle job whose only map runs on the asking tracker has
	// nothing to grant and nothing to duplicate there. The pending pass
	// idles it (DRR's empty-queue rule); the speculative pass refills it
	// and, finding no straggler, must leave that credit alone — its
	// reduce is about to open and it is owed its turn.
	gated := openJob(t, 3, JobSpec{Kernel: "wordcount", Tenant: "z-gated", Input: "/f", Mapper: MapperJava}, 1, spec)
	adm, jobs = grantTable(gated)
	if got := grantTasks(adm, jobs, DeviceHost, HeartbeatArgs{TrackerID: "t", FreeSlots: 2}, testEpoch); !slices.Equal(jobIDs(got), []int64{3}) {
		t.Fatalf("first grant from jobs %v, want gated's one map", jobIDs(got))
	}
	// A newcomer with no credit shows up as the map finishes. Zeroed
	// credit would make this a tie the newcomer's name wins.
	rival := openJob(t, 4, JobSpec{Kernel: "pi", Tenant: "a-rival", Samples: 10, Mapper: MapperJava}, 2, sched.Options{})
	jobs[4] = rival
	adm.admit("a-rival", 4, jobs)
	gated.record("t", TaskResult{TaskID: 0, ShuffleAddr: "s", PartBytes: []int64{1}})
	got = grantTasks(adm, jobs, DeviceHost, HeartbeatArgs{TrackerID: "t", FreeSlots: 1}, testEpoch)
	if len(got) != 1 || got[0].JobID != 3 || !got[0].Reduce {
		t.Errorf("after the map finished: granted %+v, want gated's reduce first", got)
	}
}
