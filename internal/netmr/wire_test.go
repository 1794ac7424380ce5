package netmr

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hetmr/internal/testutil"
)

// TestDFSBlockBytesSkipGob is the data plane's copy budget, measured
// where a job pays it: on a warm cluster at replication 2 a written
// file byte is allocated about three times (the client's block buffer
// and one stored copy per replica) and a read one once (its place in
// the result) — blocks ride raw frame tails. Inside a gob struct each
// hop allocated the block three more times (put 9.4, get 8.1).
func TestDFSBlockBytesSkipGob(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceilings hold only without it")
	}
	cluster, err := StartCluster(4, 1, 1<<20, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	data := make([]byte, 16<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	allocated := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const rounds = 3
	var put, get float64
	for i := 0; i <= rounds; i++ {
		name := fmt.Sprintf("/alloc/%d", i)
		var got []byte
		w := allocated(func() { err = cluster.Client.WriteFile(name, data, "") })
		if err != nil {
			t.Fatal(err)
		}
		r := allocated(func() { got, err = cluster.Client.ReadFile(name) })
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes of %d, err %v", len(got), len(data), err)
		}
		if i > 0 { // round 0 dials the connections and warms the buffer pool
			put, get = put+w, get+r
		}
		if err := cluster.Client.DeleteFile(name); err != nil {
			t.Fatal(err)
		}
	}
	put /= rounds * float64(len(data))
	get /= rounds * float64(len(data))
	t.Logf("allocated per file byte: put %.2f, get %.2f", put, get)
	if put > 4.0 {
		t.Errorf("WriteFile allocates %.2f B per file byte, want <= 4.0", put)
	}
	if get > 1.5 {
		t.Errorf("ReadFile allocates %.2f B per file byte, want <= 1.5", get)
	}
}
