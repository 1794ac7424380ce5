package main

import (
	"reflect"
	"testing"

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
	if !clus.JT.Speculative || clus.JT.MaxAttempts != 2 {
		t.Errorf("JobTracker booted with Speculative=%v MaxAttempts=%d, want true and 2",
			clus.JT.Speculative, clus.JT.MaxAttempts)
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
