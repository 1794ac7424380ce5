package hdfs

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func newCluster(t testing.TB, blockSize int64, repl, nodes int) *NameNode {
	t.Helper()
	nn, err := NewNameNode(blockSize, repl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, err := nn.RegisterDataNode(nodeName(i)); err != nil {
			t.Fatal(err)
		}
	}
	return nn
}

func nodeName(i int) string { return string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestNewNameNodeValidation(t *testing.T) {
	if _, err := NewNameNode(0, 1); err == nil {
		t.Error("zero block size should fail")
	}
	if _, err := NewNameNode(64, 0); !errors.Is(err, ErrBadReplFactor) {
		t.Errorf("zero replication: %v", err)
	}
	nn, err := NewNameNode(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nn.BlockSize() != 64 {
		t.Error("accessors wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	nn := newCluster(t, 100, 1, 4)
	data := make([]byte, 567) // spans 6 blocks
	for i := range data {
		data[i] = byte(i * 11)
	}
	if err := nn.WriteFile("/data/file1", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := nn.ReadFile("/data/file1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip corrupted data")
	}
	size, err := nn.FileSize("/data/file1")
	if err != nil || size != int64(len(data)) {
		t.Errorf("FileSize = %d, %v", size, err)
	}
}

func TestBlockCutting(t *testing.T) {
	nn := newCluster(t, 100, 1, 4)
	if err := nn.WriteFile("/f", make([]byte, 250), ""); err != nil {
		t.Fatal(err)
	}
	locs, err := nn.Locations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("250 bytes at 100-block: %d blocks, want 3", len(locs))
	}
	wantSizes := []int64{100, 100, 50}
	var off int64
	for i, loc := range locs {
		if loc.Size != wantSizes[i] {
			t.Errorf("block %d size %d, want %d", i, loc.Size, wantSizes[i])
		}
		if loc.Offset != off {
			t.Errorf("block %d offset %d, want %d", i, loc.Offset, off)
		}
		off += loc.Size
		if len(loc.Hosts) != 1 {
			t.Errorf("block %d has %d hosts, want 1 (replication 1)", i, len(loc.Hosts))
		}
	}
}

func TestReplicationFactor(t *testing.T) {
	nn := newCluster(t, 100, 3, 5)
	if err := nn.WriteFile("/f", make([]byte, 300), ""); err != nil {
		t.Fatal(err)
	}
	locs, _ := nn.Locations("/f")
	for i, loc := range locs {
		if len(loc.Hosts) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(loc.Hosts))
		}
		seen := map[string]bool{}
		for _, h := range loc.Hosts {
			if seen[h] {
				t.Errorf("block %d has duplicate replica host %s", i, h)
			}
			seen[h] = true
		}
	}
	if nn.TotalBytes() != 900 {
		t.Errorf("TotalBytes = %d, want 900 (3 replicas of 300)", nn.TotalBytes())
	}
}

func TestWriterLocalityPreference(t *testing.T) {
	nn := newCluster(t, 100, 1, 4)
	if err := nn.WriteFile("/f", make([]byte, 400), "ab"); err != nil {
		t.Fatal(err)
	}
	locs, _ := nn.Locations("/f")
	for i, loc := range locs {
		if loc.Hosts[0] != "ab" {
			t.Errorf("block %d primary host %s, want ab (writer locality)", i, loc.Hosts[0])
		}
	}
}

func TestPlacementBalanced(t *testing.T) {
	nn := newCluster(t, 10, 1, 4)
	if err := nn.CreateSynthetic("/big", 400); err != nil {
		t.Fatal(err)
	}
	// 40 blocks over 4 nodes: least-loaded placement balances evenly.
	counts := map[string]int{}
	locs, _ := nn.Locations("/big")
	for _, loc := range locs {
		counts[loc.Hosts[0]]++
	}
	for node, c := range counts {
		if c != 10 {
			t.Errorf("node %s holds %d blocks, want 10", node, c)
		}
	}

	// Replication 2: the exact host lists, recorded before the rack pass
	// and liveness filters were removed from placement, so the flat
	// least-loaded order (ties broken by registration order, the
	// writer's node first) is pinned rather than assumed.
	nn = newCluster(t, 10, 2, 4)
	if err := nn.CreateSynthetic("/a", 60); err != nil {
		t.Fatal(err)
	}
	if err := nn.WriteFile("/b", make([]byte, 35), "ac"); err != nil {
		t.Fatal(err)
	}
	if err := nn.CreateSynthetic("/c", 30); err != nil {
		t.Fatal(err)
	}
	want := map[string][][]string{
		"/a": {{"aa", "ab"}, {"ac", "ad"}, {"aa", "ab"}, {"ac", "ad"}, {"aa", "ab"}, {"ac", "ad"}},
		"/b": {{"ac", "aa"}, {"ac", "ab"}, {"ac", "ad"}, {"ac", "aa"}},
		"/c": {{"ab", "ad"}, {"aa", "ab"}, {"ad", "aa"}},
	}
	for name, hosts := range want {
		locs, err := nn.Locations(name)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]string
		for _, loc := range locs {
			got = append(got, loc.Hosts)
		}
		if !reflect.DeepEqual(got, hosts) {
			t.Errorf("%s placed on %v, want %v", name, got, hosts)
		}
	}
}

func TestSyntheticFiles(t *testing.T) {
	nn := newCluster(t, 100, 1, 2)
	if err := nn.CreateSynthetic("/syn", 250); err != nil {
		t.Fatal(err)
	}
	size, err := nn.FileSize("/syn")
	if err != nil || size != 250 {
		t.Errorf("size = %d, %v", size, err)
	}
	if _, err := nn.Open("/syn", ""); !errors.Is(err, ErrSynthetic) {
		t.Errorf("Open on synthetic: %v", err)
	}
	locs, err := nn.Locations("/syn")
	if err != nil || len(locs) != 3 {
		t.Errorf("locations: %d, %v", len(locs), err)
	}
	if err := nn.CreateSynthetic("/syn", 1); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if err := nn.CreateSynthetic("/neg", -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestErrorsOnMissing(t *testing.T) {
	nn := newCluster(t, 100, 1, 1)
	if _, err := nn.FileSize("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("FileSize: %v", err)
	}
	if _, err := nn.Open("/nope", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open: %v", err)
	}
	if _, err := nn.Locations("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Locations: %v", err)
	}
	if err := nn.Delete("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete: %v", err)
	}
}

func TestNoDataNodes(t *testing.T) {
	nn, _ := NewNameNode(100, 1)
	if err := nn.WriteFile("/f", make([]byte, 10), ""); !errors.Is(err, ErrNoDataNodes) {
		t.Errorf("write with no datanodes: %v", err)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	nn := newCluster(t, 100, 1, 2)
	nn.WriteFile("/f", make([]byte, 500), "")
	if nn.TotalBytes() != 500 {
		t.Fatalf("TotalBytes = %d", nn.TotalBytes())
	}
	if err := nn.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if nn.TotalBytes() != 0 {
		t.Errorf("TotalBytes after delete = %d", nn.TotalBytes())
	}
	if _, err := nn.FileSize("/f"); !errors.Is(err, ErrNotFound) {
		t.Errorf("file still exists after delete: %v", err)
	}
}

func TestListSorted(t *testing.T) {
	nn := newCluster(t, 100, 1, 1)
	for _, f := range []string{"/c", "/a", "/b"} {
		nn.CreateSynthetic(f, 10)
	}
	got := nn.List()
	want := []string{"/a", "/b", "/c"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("List = %v", got)
	}
}

func TestReaderLocalityPreference(t *testing.T) {
	nn := newCluster(t, 100, 2, 3)
	nn.WriteFile("/f", make([]byte, 100), "bb")
	r, err := nn.Open("/f", "cc")
	if err != nil {
		t.Fatal(err)
	}
	// The reader prefers its own node if it holds a replica; we can
	// only observe success here, plus Locations showing bb primary.
	buf := make([]byte, 200)
	n, _ := r.Read(buf)
	if n != 100 {
		t.Errorf("read %d bytes", n)
	}
}

func TestRegisterDuplicateDataNode(t *testing.T) {
	nn := newCluster(t, 100, 2, 1)
	if _, err := nn.RegisterDataNode("aa"); err == nil {
		t.Error("duplicate registration should fail")
	}
	// The rejected duplicate left one node, not two: a replication-2
	// block still finds a single host.
	nn.CreateSynthetic("/f", 10)
	if locs, _ := nn.Locations("/f"); len(locs) != 1 || len(locs[0].Hosts) != 1 {
		t.Errorf("locations after duplicate registration = %+v", locs)
	}
}

// Property: write/read roundtrip for random sizes and block sizes, and
// stored byte accounting equals size x replication.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, blockRaw uint8, replRaw, nodesRaw uint8) bool {
		blockSize := int64(blockRaw)%500 + 1
		nodes := int(nodesRaw)%5 + 1
		repl := int(replRaw)%nodes + 1
		nn, err := NewNameNode(blockSize, repl)
		if err != nil {
			return false
		}
		for i := 0; i < nodes; i++ {
			nn.RegisterDataNode(nodeName(i))
		}
		if err := nn.WriteFile("/f", data, ""); err != nil {
			return false
		}
		got, err := nn.ReadFile("/f")
		if err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		return nn.TotalBytes() == int64(len(data))*int64(repl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriterAfterClose(t *testing.T) {
	nn := newCluster(t, 100, 1, 1)
	w, _ := nn.Create("/f", "")
	w.Write([]byte("hello"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
	if _, err := nn.Create("/f", ""); !errors.Is(err, ErrExists) {
		t.Errorf("recreate: %v", err)
	}
}
