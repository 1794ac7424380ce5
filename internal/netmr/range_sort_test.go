package netmr

import (
	"bytes"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/spill"
)

// splitKeysFor samples every key in data and cuts parts-1 quantile
// split keys — the test-side stand-in for the engine's reservoir
// sampling pass.
func splitKeysFor(t *testing.T, data []byte, parts int) [][]byte {
	t.Helper()
	var sample [][]byte
	for off := 0; off+kernels.SortRecordBytes <= len(data); off += kernels.SortRecordBytes {
		sample = append(sample, data[off:off+kernels.SortKeyBytes])
	}
	keys := kernels.SplitKeysFromSample(sample, parts)
	if len(keys) != parts-1 {
		t.Fatalf("got %d split keys for %d parts", len(keys), parts)
	}
	return keys
}

// TestRangePartitionedSortStreamsInOrder pins the range-routing
// invariant: reduce r's stored output strictly precedes reduce r+1's,
// so the plain WaitOutput concatenation is the globally sorted file —
// bit-identical to the in-process sort, with zero post-reduce merge.
func TestRangePartitionedSortStreamsInOrder(t *testing.T) {
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 2_000, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := sortableRecords(t, 300) // 30 KB
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	if err := kernels.SortRecords(want); err != nil {
		t.Fatal(err)
	}
	got := collect(t, c.Client, JobSpec{
		Name: "sort-range", Kernel: "sort", Input: "/records", NumReducers: 4,
		SplitKeys: splitKeysFor(t, data, 4),
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("range-partitioned concatenation (%d bytes) differs from the in-process sort (%d bytes)", len(got), len(want))
	}
}

// TestSubmitRejectsBadSplitKeys pins the API-boundary validation:
// split keys must number exactly NumReducers-1 and be sorted — and a
// sort over more than one reducer must bring them, because its result
// is the partitions concatenated and hash partitions are not in key
// order.
func TestSubmitRejectsBadSplitKeys(t *testing.T) {
	c := startTestCluster(t, 1, 2_000)
	data := sortableRecords(t, 10)
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	_, err := c.Client.Submit(JobSpec{
		Name: "bad-count", Kernel: "sort", Input: "/records", NumReducers: 4,
		SplitKeys: [][]byte{{0x10}, {0x20}}, // want 3
	})
	if err == nil {
		t.Error("wrong split key count accepted")
	}
	_, err = c.Client.Submit(JobSpec{
		Name: "bad-order", Kernel: "sort", Input: "/records", NumReducers: 3,
		SplitKeys: [][]byte{{0x20}, {0x10}},
	})
	if err == nil {
		t.Error("unsorted split keys accepted")
	}
	_, err = c.Client.Submit(JobSpec{
		Name: "no-keys", Kernel: "sort", Input: "/records", NumReducers: 2,
	})
	if err == nil {
		t.Error("sort over 2 reducers accepted without split keys")
	}
}

// TestFetchWindowBoundsOutstanding pins the credit invariant on the
// shuffle plane: with a deliberately tiny spill watermark — which is
// also every tracker's fetch window — a sort whose reducers pull
// partitions (some spilled, some resident) from remote trackers never
// holds more outstanding fetch bytes than the window grants: the
// tracker-wide peak (which bounds every reducer's share a fortiori)
// stays at or under the limit, provably, under the race detector.
func TestFetchWindowBoundsOutstanding(t *testing.T) {
	const window = 16 << 10
	c, err := StartCluster(Config{Workers: 3, Slots: 2, BlockSize: 2_000, Heartbeat: 10 * time.Millisecond,
		SpillDir: t.TempDir(), SpillMem: window})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := sortableRecords(t, 600) // 60 KB across ~30 blocks
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	sorted := collect(t, c.Client, JobSpec{
		Name: "sort-windowed", Kernel: "sort", Input: "/records", NumReducers: 4,
		SplitKeys: splitKeysFor(t, data, 4),
	})
	if len(sorted) != len(data) {
		t.Fatalf("sorted %d bytes of %d", len(sorted), len(data))
	}
	credited := false
	for _, tt := range c.TTs {
		if got := tt.FetchWindowLimit(); got != window {
			t.Fatalf("tracker %s fetch window %d, spill watermark %d", tt.ID, got, window)
		}
		peak := tt.FetchWindowPeak()
		if peak > window {
			t.Errorf("tracker %s peak outstanding fetch bytes %d exceed window %d", tt.ID, peak, window)
		}
		if peak > 0 {
			credited = true
		}
	}
	if !credited {
		t.Fatal("no tracker acquired fetch credit — shuffle ran without the window?")
	}
}

// TestCreditWindowsFollowSpillWatermark pins the derived flow-control
// values: a positive spill watermark is both the cluster client's
// ingest window and every tracker's fetch window, and without one
// (everything in memory, or everything spilled) both keep their
// defaults.
func TestCreditWindowsFollowSpillWatermark(t *testing.T) {
	const block = 1_000
	for _, tc := range []struct {
		name                  string
		spillMem              int64
		ingestWant, fetchWant int64
	}{
		{"in-memory", 0, 4 * block, defaultFetchWindow},
		{"spill-all", spill.SpillAll, 4 * block, defaultFetchWindow},
		{"watermark", 24 << 10, 24 << 10, 24 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := StartCluster(Config{Workers: 2, Slots: 1, BlockSize: block, Heartbeat: 10 * time.Millisecond,
				SpillDir: t.TempDir(), SpillMem: tc.spillMem})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			if got := c.Client.ingestWindow; got != tc.ingestWant {
				t.Errorf("client ingest window %d, want %d", got, tc.ingestWant)
			}
			for _, tt := range c.TTs {
				if got := tt.FetchWindowLimit(); got != tc.fetchWant {
					t.Errorf("tracker %s fetch window %d, want %d", tt.ID, got, tc.fetchWant)
				}
			}
		})
	}
}
