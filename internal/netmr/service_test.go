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

// piSpec builds tenant's deterministic pi job of nTasks tasks.
func piSpec(tenant, name string, nTasks int, samplesPerTask int64) JobSpec {
	return JobSpec{
		Name:     name,
		Tenant:   tenant,
		Kernel:   "pi",
		Samples:  samplesPerTask * int64(nTasks),
		NumTasks: nTasks,
		Seed:     7,
	}
}

// startService boots a cluster of two-slot trackers on a 2 ms beat for
// a service-lifetime test and stops it with the test.
func startService(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.Slots, cfg.Heartbeat = 2, 2*time.Millisecond
	clus, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clus.Shutdown)
	return clus
}

// TestServiceFairShareAcrossTenants runs four concurrent jobs from two
// tenants with a 3:1 weight ratio against one JobTracker and checks
// (a) grants track the weights within 25% while both tenants have
// work, and (b) every concurrent result is bit-identical
// to the same job submitted sequentially afterwards.
func TestServiceFairShareAcrossTenants(t *testing.T) {
	// Every task sleeps 1 ms first, so a grant wave outlasts the
	// poller's 0.5 ms nap: bare pi tasks finish in microseconds, and on
	// a busy box the poller could wake only after bob's last grant.
	clus := startService(t, Config{Workers: 2, BlockSize: 64_000, Quotas: map[string]Quota{
		"alice": {Weight: 1},
		"bob":   {Weight: 3},
	}, TaskDelays: []time.Duration{time.Millisecond, time.Millisecond}})
	client := clus.Client

	// Two jobs per tenant, identical work shapes: 100 tasks of about
	// 1 ms each, so grant counts are the workload in both cases.
	const tasksPerJob = 100
	specs := map[string]JobSpec{}
	ids := map[string]int64{}
	for _, sub := range []struct{ tenant, name string }{
		{"alice", "alice-0"}, {"bob", "bob-0"}, {"alice", "alice-1"}, {"bob", "bob-1"},
	} {
		spec := piSpec(sub.tenant, sub.name, tasksPerJob, 1000)
		id, err := client.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", sub.name, err)
		}
		specs[sub.name], ids[sub.name] = spec, id
	}

	// Count from the moment all four jobs are admitted (alice-0 was
	// submitted first and ran uncontended until bob-0 arrived), and
	// sample once bob is three quarters granted. Both tenants still have
	// work on either side of that point, so the 3:1 weights hold on every
	// heartbeat the two snapshots span however late this poller wakes —
	// sampling at bob's last grant would credit alice with every slot
	// she gets alone between that grant and the poll.
	base := clus.JT.TenantStats()
	const bobSample = 2 * tasksPerJob * 3 / 4
	var aliceGain, bobGain int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := clus.JT.TenantStats()
		if stats["bob"].Granted >= bobSample {
			aliceGain = stats["alice"].Granted - base["alice"].Granted
			bobGain = stats["bob"].Granted - base["bob"].Granted
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bob never reached %d grants: %+v", bobSample, stats)
		}
		time.Sleep(500 * time.Microsecond)
	}
	wantAlice := float64(bobGain) / 3
	if ratio := float64(aliceGain) / wantAlice; ratio < 0.75 || ratio > 1.25 {
		t.Errorf("fair share: alice gained %d grants while bob gained %d, want %.0f ±25%% for weights 1:3",
			aliceGain, bobGain, wantAlice)
	}

	// Every concurrent job completes, and bit-identically to the same
	// spec submitted sequentially on the same (now idle) service.
	results := map[string][]byte{}
	for name, id := range ids {
		raw, err := waitResult(client, id, 30*time.Second)
		if err != nil {
			t.Fatalf("wait %s: %v", name, err)
		}
		results[name] = raw
	}
	for name, spec := range specs {
		seq, err := submitAndWait(client, spec, 30*time.Second)
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
	clus := startService(t, Config{Workers: 2, BlockSize: 64_000, Quotas: map[string]Quota{
		"carol": {MaxJobs: 1},
	}})
	client := clus.Client
	id, err := client.Submit(piSpec("carol", "carol-0", 50, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(piSpec("carol", "carol-1", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second submit at MaxJobs=1: error %v, want ErrQuotaExceeded", err)
	}
	// Other tenants are not throttled by carol's quota.
	if _, err := submitAndWait(client, piSpec("dave", "dave-0", 2, 1000), 30*time.Second); err != nil {
		t.Fatalf("unthrottled tenant rejected: %v", err)
	}
	if _, err := waitResult(client, id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(client, piSpec("carol", "carol-2", 2, 1000), 30*time.Second); err != nil {
		t.Fatalf("submit after job finished: %v", err)
	}
}

// TestServiceQuotaMaxQueued pins the admission queue: with MaxQueued
// room, an over-cap submission parks instead of being rejected,
// promotes automatically when a running job finishes, and completes —
// while submissions past the queue cap still get the typed rejection.
func TestServiceQuotaMaxQueued(t *testing.T) {
	clus := startService(t, Config{Workers: 2, BlockSize: 64_000, Quotas: map[string]Quota{
		"frank": {MaxJobs: 1, MaxQueued: 1},
	}})
	frank := clus.Client
	running, err := frank.Submit(piSpec("frank", "frank-0", 50, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	// Over the job cap, inside the queue cap: accepted, parked.
	queued, err := frank.Submit(piSpec("frank", "frank-1", 2, 1000))
	if err != nil {
		t.Fatalf("submit with queue room rejected: %v", err)
	}
	// Queue full too: now the typed rejection fires.
	if _, err := frank.Submit(piSpec("frank", "frank-2", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit past MaxQueued: error %v, want ErrQuotaExceeded", err)
	}
	// The queued job promotes once the running one finishes, and both
	// complete.
	if _, err := waitResult(frank, running, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(frank, queued, 30*time.Second); err != nil {
		t.Fatalf("queued job never promoted: %v", err)
	}
}

// TestServiceSpillQuotaAndKillRelease drives the byte-budget quota
// end to end: a tenant whose byte-stream results sit uncollected on the
// trackers is refused new work once past its SpillBytes budget, and
// Kill releases the held state, restoring admission.
func TestServiceSpillQuotaAndKillRelease(t *testing.T) {
	clus := startService(t, Config{Workers: 2, BlockSize: 1000, Quotas: map[string]Quota{
		"erin": {SpillBytes: 1},
	}})
	erin := clus.Client
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
		Name: "enc", Tenant: "erin", Kernel: "aes-ctr", Input: "/plain", Args: args,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(erin, id, 30*time.Second); err != nil {
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
	if _, err := erin.Submit(piSpec("erin", "erin-1", 2, 1000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit over spill budget: error %v, want ErrQuotaExceeded", err)
	}
	// Kill on a finished streamed job releases its outputs.
	if err := erin.Kill(id, "erin"); err != nil {
		t.Fatal(err)
	}
	waitHeld(false)
	if _, err := submitAndWait(erin, piSpec("erin", "erin-2", 2, 1000), 30*time.Second); err != nil {
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
	clus := startService(t, Config{Workers: 3, BlockSize: 1000, TaskDelays: delays})
	client := clus.Client
	if err := client.WriteFile("/corpus", corpus, ""); err != nil {
		t.Fatal(err)
	}
	wcSpec := func(tenant, name string) JobSpec {
		return JobSpec{Name: name, Tenant: tenant, Kernel: "wordcount", Input: "/corpus", NumReducers: 3}
	}
	victimID, err := client.Submit(wcSpec("frank", "victim"))
	if err != nil {
		t.Fatal(err)
	}
	survivorID, err := client.Submit(wcSpec("grace", "survivor"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the victim make real progress (shuffle stores holding its
	// partitions) before the kill.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := client.Status(victimID)
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
	if err := client.Kill(victimID, "grace"); err == nil {
		t.Error("cross-tenant kill succeeded, want refusal")
	}
	if err := client.Kill(victimID, "frank"); err != nil {
		t.Fatal(err)
	}
	if _, err := waitResult(client, victimID, 30*time.Second); err == nil {
		t.Error("killed job's Wait returned success, want killed error")
	}
	// The survivor completes bit-identically to the serial reference.
	raw, err := waitResult(client, survivorID, 60*time.Second)
	if err != nil {
		t.Fatalf("survivor after neighbour kill: %v", err)
	}
	counts := runCounts(t, raw)
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
	jobs, err := client.ListJobs("frank")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || !jobs[0].Done || jobs[0].Err == "" {
		t.Errorf("frank's job listing = %+v, want one terminal killed job", jobs)
	}
	if stats := clus.JT.TenantStats(); stats["frank"].ActiveJobs != 0 {
		t.Errorf("killed tenant still has %d active jobs", stats["frank"].ActiveJobs)
	}
	all, err := client.ListJobs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("unfiltered listing has %d jobs, want 2", len(all))
	}
}
