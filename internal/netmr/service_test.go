package netmr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// The multi-tenant job service: one long-running JobTracker accepting
// concurrent submissions from several tenants, weighted fair-share
// grants across the shared tracker fleet, quota-based admission
// control, and Kill releasing a tenant's state without touching its
// neighbours.

// piSpec builds a deterministic pi job of nTasks tasks.
func piSpec(name string, nTasks int, samplesPerTask int64) JobSpec {
	return JobSpec{
		Name:     name,
		Kernel:   "pi",
		Samples:  samplesPerTask * int64(nTasks),
		NumTasks: nTasks,
		Seed:     7,
	}
}

// startService boots a cluster for a service-lifetime test and stops it
// with the test.
func startService(t *testing.T, workers int, blockSize int64, opts ...ClusterOption) *Cluster {
	t.Helper()
	clus, err := StartCluster(workers, 2, blockSize, 2*time.Millisecond, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clus.Shutdown)
	return clus
}

// tenantClient dials clus as tenant, the way a remote submitter would.
func tenantClient(t *testing.T, clus *Cluster, tenant string) *TenantClient {
	t.Helper()
	tc, err := NewTenantClient(clus.NN.Addr(), clus.JT.Addr(), clus.blockSize, tenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	return tc
}

// TestServiceFairShareAcrossTenants runs four concurrent jobs from two
// tenants with a 3:1 weight ratio against one JobTracker and checks
// (a) cumulative grants track the weights within 25% while both
// tenants have work, and (b) every concurrent result is bit-identical
// to the same job submitted sequentially afterwards.
func TestServiceFairShareAcrossTenants(t *testing.T) {
	clus := startService(t, 2, 64_000, WithQuotas(map[string]Quota{
		"alice": {Weight: 1},
		"bob":   {Weight: 3},
	}))
	alice := tenantClient(t, clus, "alice")
	bob := tenantClient(t, clus, "bob")

	// Two jobs per tenant, identical work shapes: 100 sub-millisecond
	// tasks each, so grant counts are the workload in both cases.
	const tasksPerJob = 100
	specs := map[string]JobSpec{}
	ids := map[string]int64{}
	for _, sub := range []struct {
		tc   *TenantClient
		name string
	}{
		{alice, "alice-0"}, {bob, "bob-0"}, {alice, "alice-1"}, {bob, "bob-1"},
	} {
		spec := piSpec(sub.name, tasksPerJob, 1000)
		id, err := sub.tc.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.name, err)
		}
		specs[sub.name], ids[sub.name] = spec, id
	}

	// Sample the grant counters the moment bob's workload is fully
	// granted — before bob drains, the 3:1 weights should have held on
	// every heartbeat, so alice sits near a third of bob's grants.
	const bobTotal = 2 * tasksPerJob
	var aliceAtBobDone int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := clus.JT.TenantStats()
		if stats["bob"].Granted >= bobTotal {
			aliceAtBobDone = stats["alice"].Granted
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bob never reached %d grants: %+v", bobTotal, stats)
		}
		time.Sleep(500 * time.Microsecond)
	}
	wantAlice := float64(bobTotal) / 3
	if ratio := float64(aliceAtBobDone) / wantAlice; ratio < 0.75 || ratio > 1.25 {
		t.Errorf("fair share: alice got %d grants when bob hit %d, want %.0f ±25%% for weights 1:3",
			aliceAtBobDone, bobTotal, wantAlice)
	}

	// Every concurrent job completes, and bit-identically to the same
	// spec submitted sequentially on the same (now idle) service.
	results := map[string][]byte{}
	for name, id := range ids {
		tc := alice
		if name[0] == 'b' {
			tc = bob
		}
		raw, err := tc.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("wait %s: %v", name, err)
		}
		results[name] = raw
	}
	for name, spec := range specs {
		tc := alice
		if name[0] == 'b' {
			tc = bob
		}
		seq, err := tc.SubmitAndWait(spec, 30*time.Second)
		if err != nil {
			t.Fatalf("sequential %s: %v", name, err)
		}
		if !bytes.Equal(results[name], seq) {
			t.Errorf("%s: concurrent result differs from sequential run", name)
		}
	}
}

// TestServiceQuotaMaxJobs pins the typed admission rejection: a tenant
// at its concurrent-job cap gets ErrQuotaExceeded across the RPC
// boundary, and regains admission once a job finishes.
func TestServiceQuotaMaxJobs(t *testing.T) {
	clus := startService(t, 2, 64_000, WithQuotas(map[string]Quota{
		"carol": {MaxJobs: 1},
	}))
	carol := tenantClient(t, clus, "carol")
	id, err := carol.Submit(piSpec("carol-0", 50, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := carol.Submit(piSpec("carol-1", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second submit at MaxJobs=1: error %v, want ErrQuotaExceeded", err)
	}
	// Other tenants are not throttled by carol's quota.
	dave := tenantClient(t, clus, "dave")
	if _, err := dave.SubmitAndWait(piSpec("dave-0", 2, 1000), 30*time.Second); err != nil {
		t.Fatalf("unthrottled tenant rejected: %v", err)
	}
	if _, err := carol.Wait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.SubmitAndWait(piSpec("carol-2", 2, 1000), 30*time.Second); err != nil {
		t.Fatalf("submit after job finished: %v", err)
	}
}

// TestServiceQuotaMaxQueued pins the admission queue: with MaxQueued
// room, an over-cap submission parks instead of being rejected,
// promotes automatically when a running job finishes, and completes —
// while submissions past the queue cap still get the typed rejection.
func TestServiceQuotaMaxQueued(t *testing.T) {
	clus := startService(t, 2, 64_000, WithQuotas(map[string]Quota{
		"frank": {MaxJobs: 1, MaxQueued: 1},
	}))
	frank := tenantClient(t, clus, "frank")
	running, err := frank.Submit(piSpec("frank-0", 50, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	// Over the job cap, inside the queue cap: accepted, parked.
	queued, err := frank.Submit(piSpec("frank-1", 2, 1000))
	if err != nil {
		t.Fatalf("submit with queue room rejected: %v", err)
	}
	// Queue full too: now the typed rejection fires.
	if _, err := frank.Submit(piSpec("frank-2", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit past MaxQueued: error %v, want ErrQuotaExceeded", err)
	}
	// The queued job promotes once the running one finishes, and both
	// complete.
	if _, err := frank.Wait(running, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := frank.Wait(queued, 30*time.Second); err != nil {
		t.Fatalf("queued job never promoted: %v", err)
	}
}

// TestServiceSpillQuotaAndKillRelease drives the byte-budget quota
// end to end: a tenant whose streamed outputs sit unreleased on the
// trackers is refused new work once past its SpillBytes budget, and
// Kill releases the held state, restoring admission.
func TestServiceSpillQuotaAndKillRelease(t *testing.T) {
	clus := startService(t, 2, 1000, WithQuotas(map[string]Quota{
		"erin": {SpillBytes: 1},
	}))
	erin := tenantClient(t, clus, "erin")
	plain := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KB
	if err := erin.WriteFile("/plain", plain, ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{
		Key: []byte("0123456789abcdef"), IV: make([]byte, 16), BlockBytes: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := erin.Submit(JobSpec{
		Name: "enc", Kernel: "aes-ctr", Input: "/plain", Args: args, StreamOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := erin.Wait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// The ciphertext pieces stay on the trackers until released;
	// heartbeats report them and the budget check sees them.
	waitHeld := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			held := clus.JT.TenantStats()["erin"].HeldBytes
			if (held > 0) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("erin held bytes never became %v (at %d)", want, held)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitHeld(true)
	if _, err := erin.Submit(piSpec("erin-1", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit over spill budget: error %v, want ErrQuotaExceeded", err)
	}
	// Kill on a finished streamed job releases its outputs.
	if err := erin.Kill(id); err != nil {
		t.Fatal(err)
	}
	waitHeld(false)
	if _, err := erin.SubmitAndWait(piSpec("erin-2", 2, 1000), 30*time.Second); err != nil {
		t.Fatalf("submit after release: %v", err)
	}
}

// TestServiceKillMidFlightIsolatesTenants kills one tenant's job while
// both tenants run shuffle jobs on the shared fleet: the other
// tenant's job must complete with the exact serial-reference result,
// and the killed job's shuffle state must drain from every tracker.
func TestServiceKillMidFlightIsolatesTenants(t *testing.T) {
	corpus := shuffleCorpus(50_000, 97)
	delays := []time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	clus := startService(t, 3, 1000, WithTrackerDelays(delays))
	frank := tenantClient(t, clus, "frank")
	grace := tenantClient(t, clus, "grace")
	if err := frank.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	wcSpec := func(name string) JobSpec {
		return JobSpec{Name: name, Kernel: "wordcount", Input: "/corpus", NumReducers: 3}
	}
	victimID, err := frank.Submit(wcSpec("victim"))
	if err != nil {
		t.Fatal(err)
	}
	survivorID, err := grace.Submit(wcSpec("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the victim make real progress (shuffle stores holding its
	// partitions) before the kill.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := frank.Status(victimID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim job never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	// A tenant cannot kill another tenant's job.
	if err := grace.Kill(victimID); err == nil {
		t.Error("cross-tenant kill succeeded, want refusal")
	}
	if err := frank.Kill(victimID); err != nil {
		t.Fatal(err)
	}
	if _, err := frank.Wait(victimID, 30*time.Second); err == nil {
		t.Error("killed job's Wait returned success, want killed error")
	}
	// The survivor completes bit-identically to the serial reference.
	raw, err := grace.Wait(survivorID, 60*time.Second)
	if err != nil {
		t.Fatalf("survivor after neighbour kill: %v", err)
	}
	var counts map[string]int64
	if err := rpcnet.Unmarshal(raw, &counts); err != nil {
		t.Fatal(err)
	}
	want := kernels.WordCount(corpus)
	if len(counts) != len(want) {
		t.Fatalf("survivor counted %d distinct words, want %d", len(counts), len(want))
	}
	for w, n := range want {
		if counts[w] != n {
			t.Fatalf("survivor count[%s] = %d, want %d", w, counts[w], n)
		}
	}
	// The killed job's shuffle state drains from every tracker (late
	// in-flight attempts may re-store a partition once, then the next
	// heartbeat purges it).
	drained := func() bool {
		for _, tt := range clus.TTs {
			if tt.JobHeldBytes(victimID) > 0 {
				return false
			}
		}
		return true
	}
	deadline = time.Now().Add(20 * time.Second)
	for !drained() {
		if time.Now().After(deadline) {
			var report []string
			for _, tt := range clus.TTs {
				report = append(report, fmt.Sprintf("%d", tt.JobHeldBytes(victimID)))
			}
			t.Fatalf("killed job still holds store bytes per tracker: %v", report)
		}
		time.Sleep(time.Millisecond)
	}
	// Lifecycle surfaces agree: the victim is terminal with a killed
	// error, the tenant has no active jobs, the survivor shows done.
	jobs, err := frank.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !jobs[0].Done || jobs[0].Err == "" {
		t.Errorf("frank's job listing = %+v, want one terminal killed job", jobs)
	}
	if stats := clus.JT.TenantStats(); stats["frank"].ActiveJobs != 0 {
		t.Errorf("killed tenant still has %d active jobs", stats["frank"].ActiveJobs)
	}
	all, err := frank.Client.ListJobs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("unfiltered listing has %d jobs, want 2", len(all))
	}
}
