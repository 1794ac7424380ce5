package netmr

import (
	"bytes"
	"testing"
	"time"

	"hetmr/internal/kernels"
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
	c, err := StartCluster(3, 2, 2_000, 10*time.Millisecond)
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
// shuffle plane: with a deliberately tiny fetch window, a sort whose
// reducers pull partitions from remote trackers never holds more
// outstanding fetch bytes than the window grants — the tracker-wide
// peak (which bounds every reducer's share a fortiori) stays at or
// under the limit, provably, under the race detector.
func TestFetchWindowBoundsOutstanding(t *testing.T) {
	const window = 64 << 10
	c, err := StartCluster(3, 2, 2_000, 10*time.Millisecond,
		WithFetchWindow(window), WithSpill(t.TempDir(), 0, nil))
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
			t.Fatalf("tracker %s fetch window %d, configured %d", tt.ID, got, window)
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
