package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/netmr"
)

// TestServeHonoursSchedulingAndAccelFlags pins that the fleet -serve
// boots is the one its flags describe. serve() used to map flags to
// cluster options by hand and lagged the engine's mapping: -speculative,
// -max-attempts and -accel-fraction were dropped without a word and
// every tracker came up host-only. The Config below is what main builds
// for
//
//	mrsim -serve -nodes 4 -speculative -max-attempts 2 -accel-fraction 0.5 -quotas alice=3
func TestServeHonoursSchedulingAndAccelFlags(t *testing.T) {
	quotas, err := parseQuotas("alice=3")
	if err != nil {
		t.Fatal(err)
	}
	r, clus, err := startService(engine.Config{
		Workers:        4,
		MappersPerNode: 2,
		BlockSize:      64_000,
		Speculative:    true,
		MaxAttempts:    2,
		AccelFraction:  0.5,
		Quotas:         quotas,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cfg := clus.Config(); !cfg.Speculative || cfg.MaxAttempts != 2 {
		t.Errorf("cluster booted with Speculative=%v MaxAttempts=%d, want true and 2",
			cfg.Speculative, cfg.MaxAttempts)
	}
	var kinds []string
	for _, tt := range clus.TTs {
		kinds = append(kinds, tt.DeviceKind())
	}
	want := []string{netmr.DeviceCell, netmr.DeviceCell, netmr.DeviceHost, netmr.DeviceHost}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("tracker device kinds %v, want %v for -accel-fraction 0.5", kinds, want)
	}
	if w := clus.JT.TenantStats()["alice"].Weight; w != 3 {
		t.Errorf("tenant alice has fair-share weight %g, want 3 from -quotas", w)
	}
}

// TestServeRejectsZeroSlotsAndBlockSize: the engine would boot a zero
// -slots or -block-size at its own default while serve's banner printed
// the zero — and the block size is what remote submitters must repeat —
// so serve refuses before booting anything.
func TestServeRejectsZeroSlotsAndBlockSize(t *testing.T) {
	for _, cfg := range []engine.Config{
		{Workers: 1, MappersPerNode: 0, BlockSize: 64_000},
		{Workers: 1, MappersPerNode: 2, BlockSize: 0},
	} {
		if err := serve(cfg, ""); err == nil {
			t.Errorf("serve(slots=%d, block size=%d) booted, want an error", cfg.MappersPerNode, cfg.BlockSize)
		}
	}
}

// TestParseQuotas covers the -quotas syntax: fields fill by position,
// omitted ones stay zero, and a malformed entry is an error.
func TestParseQuotas(t *testing.T) {
	got, err := parseQuotas("alice=2.5:1:2:4096:8, bob=1:3")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]engine.Quota{
		"alice": {Weight: 2.5, MaxJobs: 1, MaxTrackers: 2, SpillBytes: 4096, MaxQueued: 8},
		"bob":   {Weight: 1, MaxJobs: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseQuotas = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"alice", "=3", "alice=x", "alice=1:y", "alice=1:2:3:z", "alice=1:2:3:4:5:6"} {
		if _, err := parseQuotas(bad); err == nil {
			t.Errorf("parseQuotas(%q) succeeded, want an error", bad)
		}
	}
}

// TestRemoteSubmissionMatchesLocalAndLeavesNothingBehind drives the
// -nn/-jt path — buildJob, engine.Dial, Run — as three mrsim processes
// submitting at once would, two of them as one tenant: every result
// must equal
// the in-process reference, and afterwards the service's namespace and
// block stores must be as empty as before. Remote submission used to
// stage under a name of its own and never delete it; and two attached
// clients staging "/engine/sort-1" each would have interleaved their
// blocks into one file.
func TestRemoteSubmissionMatchesLocalAndLeavesNothingBehind(t *testing.T) {
	cfg := engine.Config{Workers: 3, MappersPerNode: 2, BlockSize: 64_000}
	r, clus, err := startService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	workloads := []string{"wc", "sort", "enc"}
	build := func(wl string) *engine.Job {
		job, err := buildJob("net", wl, cfg, 0, 0.5, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	want := make(map[string]*engine.Result)
	for _, wl := range workloads {
		if want[wl], err = engine.RunOnce("live", cfg, build(wl)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob", "bob"} {
		jobs := make(map[string]*engine.Job)
		for _, wl := range workloads {
			jobs[wl] = build(wl)
			jobs[wl].Tenant = tenant
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := engine.Dial(clus.NN.Addr(), clus.JT.Addr(), engine.Config{BlockSize: cfg.BlockSize})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for _, wl := range workloads {
				got, err := c.Run(jobs[wl])
				if err != nil {
					t.Errorf("%s %s: %v", tenant, wl, err)
					return
				}
				if err := engine.SameResult(jobs[wl].Kind, want[wl], got); err != nil {
					t.Errorf("%s %s: remote result differs from the in-process reference: %v", tenant, wl, err)
				}
			}
		}()
	}
	wg.Wait()

	files, err := clus.Client.ListFiles()
	if err != nil || len(files) != 0 {
		t.Fatalf("service namespace after the remote jobs = %v (err %v), want empty", files, err)
	}
	stored := func() int {
		n := 0
		for _, dn := range clus.DNs {
			n += dn.BlockCount()
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for stored() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := stored(); n != 0 {
		t.Errorf("datanodes still store %d block replicas after every remote job was collected", n)
	}
}
