package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hetmr/internal/cluster"
	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/sim"
)

// The accelerator conformance contract on the distributed runtime:
// whatever mix of accelerated and host trackers a config selects, and
// whichever mapper variant runs, every job kind must produce results
// bit-identical to the all-host reference — AccelFraction and Mapper
// are performance knobs, never semantics knobs.

func TestNetAcceleratorConformance(t *testing.T) {
	variants := []struct {
		name   string
		mapper string
		accel  float64
	}{
		{"java-accel0", "java", NoAcceleration}, // reference: all-host
		{"cell-accel0", "cell", NoAcceleration},
		{"cell-accel0.5", "cell", 0.5},
		{"cell-accel1", "cell", 1.0},
	}
	type runKey struct{ variant, job string }
	results := make(map[runKey]*Result)
	for _, v := range variants {
		cfg := conformanceConfig()
		cfg.Mapper = v.mapper
		cfg.AccelFraction = v.accel
		r, err := New("net", cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", v.name, err)
		}
		for _, c := range conformanceCases() {
			res, err := r.Run(c.job)
			if err != nil {
				r.Close()
				t.Fatalf("%s: %s: %v", v.name, c.name, err)
			}
			results[runKey{v.name, c.name}] = res
		}
		// The tracker device profile must match the requested fraction.
		frac, err := ResolveAccelFraction(v.accel)
		if err != nil {
			t.Fatal(err)
		}
		wantCell := int(frac*float64(cfg.Workers) + 0.5)
		cells := 0
		for _, kind := range results[runKey{v.name, "pi"}].Devices {
			if kind == netmr.DeviceCell {
				cells++
			}
		}
		if cells != wantCell {
			t.Errorf("%s: %d accelerated trackers in Devices, want %d", v.name, cells, wantCell)
		}
		// A fully accelerated cell-mapper cluster must actually offload.
		if v.mapper == "cell" && frac == 1 {
			var offloaded int64
			for _, tt := range r.(*netRunner).Cluster().TTs {
				offloaded += tt.AccelTasks()
			}
			if offloaded == 0 {
				t.Errorf("%s: no task attempt ran on an accelerator", v.name)
			}
		}
		r.Close()
	}
	for _, c := range conformanceCases() {
		ref := results[runKey{variants[0].name, c.name}]
		for _, v := range variants[1:] {
			res := results[runKey{v.name, c.name}]
			if err := SameResult(c.job.Kind, ref, res); err != nil {
				t.Errorf("%s vs %s on %s: %v", variants[0].name, v.name, c.name, err)
			}
		}
	}
}

// TestNoSilentConfigDrop pins the config-honesty contract: a backend
// handed a knob it cannot honour must refuse with ErrUnsupported
// instead of silently running a different job.
func TestNoSilentConfigDrop(t *testing.T) {
	unsupported := []struct {
		backend string
		cfg     Config
	}{
		{"live", Config{Mapper: "empty"}},
		{"net", Config{Mapper: "empty"}},
		{"live", Config{Quotas: map[string]Quota{"a": {MaxJobs: 1}}}},
		{"sim", Config{Quotas: map[string]Quota{"a": {MaxJobs: 1}}}},
	}
	for _, tc := range unsupported {
		r, err := New(tc.backend, tc.cfg)
		if err == nil {
			r.Close()
			t.Errorf("%s accepted %+v, want ErrUnsupported", tc.backend, tc.cfg)
			continue
		}
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s on %+v: error %v does not wrap ErrUnsupported", tc.backend, tc.cfg, err)
		}
	}
	// The knobs remain honoured where support exists.
	supported := []struct {
		backend string
		cfg     Config
	}{
		{"sim", Config{Mapper: "empty"}},
		{"net", Config{Workers: 1, Mapper: "java", AccelFraction: 0.5}},
		{"net", Config{Workers: 1, Quotas: map[string]Quota{"a": {Weight: 2, MaxJobs: 4}}}},
		{"live", Config{Workers: 1, SpillMemBytes: 10_000, SpillDir: t.TempDir()}},
	}
	for _, tc := range supported {
		r, err := New(tc.backend, tc.cfg)
		if err != nil {
			t.Errorf("%s rejected %+v: %v", tc.backend, tc.cfg, err)
			continue
		}
		r.Close()
	}
}

// TestNetConcurrentRuns exercises one net runner from several
// goroutines (run under -race in CI): each job must stage its input
// under a distinct DFS path and come back with its own counts — a
// shared-sequence race would collide staging paths and cross-corrupt
// inputs.
func TestNetConcurrentRuns(t *testing.T) {
	r, err := New("net", Config{Workers: 2, BlockSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct corpus per goroutine, so a staging collision
			// shows up as a wrong count, not just a race report.
			corpus := []byte(strings.Repeat(fmt.Sprintf("goroutine%d word ", g), 300))
			res, err := r.Run(&Job{Kind: Wordcount, Input: corpus})
			if err != nil {
				errs[g] = err
				return
			}
			want := make(map[string]int64)
			for off := 0; off < len(corpus); off += 1000 {
				end := off + 1000
				if end > len(corpus) {
					end = len(corpus)
				}
				for w, n := range kernels.WordCount(corpus[off:end]) {
					want[w] += n
				}
			}
			if len(res.Pairs) != len(want) {
				errs[g] = fmt.Errorf("goroutine %d: %d distinct words, want %d", g, len(res.Pairs), len(want))
				return
			}
			for _, kv := range res.Pairs {
				if fmt.Sprintf("%d", want[kv.Key]) != kv.Value {
					errs[g] = fmt.Errorf("goroutine %d: word %q = %s, want %d", g, kv.Key, kv.Value, want[kv.Key])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestResolveAccelFraction pins the shared resolver's boundary
// behaviour — the one copy of the "0 means default, NoAcceleration
// means none" convention.
func TestResolveAccelFraction(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
		ok   bool
	}{
		{0, 1, true},
		{NoAcceleration, 0, true},
		{1, 1, true},
		{0.5, 0.5, true},
		{0.0001, 0.0001, true},
		{-0.3, 0, false},
		{1.0001, 0, false},
		{math.NaN(), 0, false}, // every NaN comparison is false; must not slip through
	}
	for _, tc := range cases {
		got, err := ResolveAccelFraction(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ResolveAccelFraction(%g): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ResolveAccelFraction(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestNetDeviceKindsFollowAccelFraction checks the net backend's device
// profile is the same first-AccelFraction-of-workers layout live
// builds.
func TestNetDeviceKindsFollowAccelFraction(t *testing.T) {
	cfg, err := Config{Workers: 4, AccelFraction: 0.5}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	got := netDeviceKinds(cfg)
	want := []string{netmr.DeviceCell, netmr.DeviceCell, netmr.DeviceHost, netmr.DeviceHost}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("device kinds %v, want %v", got, want)
		}
	}
}

// TestEveryBackendBuildsTheSameAcceleratedNodes pins "one Config
// builds the same hardware everywhere": for every worker count and
// fraction, live's SPE runtimes, net's device profiles and sim's
// modelled cluster carry the same accelerated-node count — the fraction
// rounded once, to the nearest node. (Sim used to truncate: Workers 3
// at AccelFraction 0.5 modelled one accelerated node where live and
// net built two.)
func TestEveryBackendBuildsTheSameAcceleratedNodes(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, f := range []float64{.1, .25, .3, .4, .5, .6, .75, .9} {
			cfg, err := Config{Workers: n, AccelFraction: f}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			want := int(math.Round(f * float64(n)))
			r, err := New("live", cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := 0
			for _, node := range r.(*liveRunner).Cluster().Nodes {
				if node.Accel != nil {
					live++
				}
			}
			r.Close()
			net := 0
			for _, kind := range netDeviceKinds(cfg) {
				if kind == netmr.DeviceCell {
					net++
				}
			}
			clus, err := cluster.New(sim.NewEngine(1), n, (&simRunner{cfg: cfg}).hardware()...)
			if err != nil {
				t.Fatal(err)
			}
			if simN := clus.AcceleratedCount(); live != want || net != want || simN != want {
				t.Errorf("Workers %d AccelFraction %g: live %d, net %d, sim %d accelerated nodes, want %d on all",
					n, f, live, net, simN, want)
			}
		}
	}
}

// TestJobTimeoutConfig covers the timeout knob: negative is rejected
// at the API boundary, zero selects the default, and a tiny deadline
// actually bounds Run instead of the old hard-coded two minutes.
func TestJobTimeoutConfig(t *testing.T) {
	if _, err := New("net", Config{JobTimeout: -time.Second}); err == nil {
		t.Error("negative JobTimeout accepted")
	}
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JobTimeout != DefaultJobTimeout {
		t.Errorf("default JobTimeout = %v, want %v", cfg.JobTimeout, DefaultJobTimeout)
	}
	r, err := New("net", Config{Workers: 1, JobTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Run(&Job{Kind: Pi, Samples: 1_000_000, Tasks: 8})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("1ns JobTimeout: err = %v, want a timeout", err)
	}
}

// TestNegativeReducersRejected covers the partition-count boundary:
// the engine rejects a negative Config.Reducers at construction, so
// the divide-by-zero-prone partition hash can never see it.
func TestNegativeReducersRejected(t *testing.T) {
	if _, err := New("net", Config{Reducers: -3}); err == nil {
		t.Error("negative Reducers accepted")
	}
}
