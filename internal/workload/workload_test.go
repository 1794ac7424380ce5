package workload

import (
	"errors"
	"testing"

	"hetmr/internal/hadoop"
	"hetmr/internal/hdfs"
	"hetmr/internal/perfmodel"
)

func newFS(t *testing.T, nodes []string) *hdfs.NameNode {
	t.Helper()
	nn, err := hdfs.NewNameNode(perfmodel.HDFSBlockBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if _, err := nn.RegisterDataNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return nn
}

func TestEncryptionDatasetLayout(t *testing.T) {
	nodes := []string{"node000", "node001", "node002"}
	nn := newFS(t, nodes)
	const perMapper = 1 << 30 // 1GB: 16 records of 64MB
	splits, err := EncryptionDataset(nn, nodes, 2, perMapper)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 6 {
		t.Fatalf("got %d splits, want 6 (3 nodes x 2 mappers)", len(splits))
	}
	for i, s := range splits {
		if s.Index != i {
			t.Errorf("split %d index %d", i, s.Index)
		}
		if got := s.InputBytes(); got != perMapper {
			t.Errorf("split %d has %d bytes, want %d", i, got, perMapper)
		}
		if len(s.Records) != 16 {
			t.Errorf("split %d has %d records, want 16 (64MB each)", i, len(s.Records))
		}
		wantNode := nodes[i/2]
		if len(s.PreferredHosts) != 1 || s.PreferredHosts[0] != wantNode {
			t.Errorf("split %d preferred %v, want [%s]", i, s.PreferredHosts, wantNode)
		}
		// Every record's data sits on the split's node: the locality
		// property the paper's loopback observation depends on.
		for _, r := range s.Records {
			local := false
			for _, h := range r.Hosts {
				if h == wantNode {
					local = true
				}
			}
			if !local {
				t.Errorf("split %d record not hosted on %s: %v", i, wantNode, r.Hosts)
			}
		}
	}
	var total int64
	for i := range splits {
		total += splits[i].InputBytes()
	}
	if total != 6*perMapper {
		t.Errorf("splits carry %d input bytes, want %d", total, 6*perMapper)
	}
	// Splits must drive a valid hadoop job.
	job := &hadoop.Job{Name: "enc", Splits: splits,
		MapperFor: hadoop.StaticMapperFor(hadoop.EmptyMapper{})}
	if err := job.Validate(); err != nil {
		t.Errorf("generated splits invalid: %v", err)
	}
}

func TestEncryptionDatasetPartialRecord(t *testing.T) {
	nodes := []string{"node000"}
	nn := newFS(t, nodes)
	// 100MB: one 64MB record plus one 36MB tail.
	splits, err := EncryptionDataset(nn, nodes, 1, 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || len(splits[0].Records) != 2 {
		t.Fatalf("splits = %+v", splits)
	}
	if splits[0].Records[1].Bytes != 36<<20 {
		t.Errorf("tail record = %d bytes", splits[0].Records[1].Bytes)
	}
}

func TestEncryptionDatasetValidation(t *testing.T) {
	nn := newFS(t, []string{"node000"})
	if _, err := EncryptionDataset(nn, nil, 2, 1); err == nil {
		t.Error("no nodes should fail")
	}
	if _, err := EncryptionDataset(nn, []string{"node000"}, 0, 1); err == nil {
		t.Error("zero mappers should fail")
	}
	if _, err := EncryptionDataset(nn, []string{"node000"}, 2, 0); err == nil {
		t.Error("zero bytes should fail")
	}
}

func TestEncryptionDatasetDistinctFiles(t *testing.T) {
	nodes := []string{"node000", "node001"}
	nn := newFS(t, nodes)
	if _, err := EncryptionDataset(nn, nodes, 2, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := len(nn.List()); got != 4 {
		t.Errorf("created %d files, want 4", got)
	}
	// A second generation on the same FS must fail (files exist), not
	// silently reuse stale data.
	if _, err := EncryptionDataset(nn, nodes, 2, 1<<20); err == nil {
		t.Error("regeneration over existing files should fail")
	}
}

func TestSplitsFromFile(t *testing.T) {
	nn, _ := hdfs.NewNameNode(100, 1)
	nn.RegisterDataNode("node000")
	nn.RegisterDataNode("node001")
	if err := nn.CreateSynthetic("/in", 1000); err != nil {
		t.Fatal(err)
	}
	splits, err := SplitsFromFile(nn, "/in", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("got %d splits, want 4", len(splits))
	}
	var total int64
	for i, s := range splits {
		if s.Index != i {
			t.Errorf("split %d has index %d", i, s.Index)
		}
		if len(s.PreferredHosts) == 0 {
			t.Errorf("split %d has no preferred hosts", i)
		}
		for _, r := range s.Records {
			total += r.Bytes
			if len(r.Hosts) == 0 {
				t.Errorf("record in split %d has no hosts", i)
			}
		}
	}
	if total != 1000 {
		t.Errorf("records total %d bytes, want 1000", total)
	}
}

func TestSplitsFromFileUnevenAndErrors(t *testing.T) {
	nn, _ := hdfs.NewNameNode(64, 1)
	nn.RegisterDataNode("node000")
	nn.CreateSynthetic("/odd", 250)
	splits, err := SplitsFromFile(nn, "/odd", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range splits {
		total += s.InputBytes()
	}
	if total != 250 {
		t.Errorf("total = %d, want 250", total)
	}

	if _, err := SplitsFromFile(nn, "/missing", 2, 64); !errors.Is(err, hdfs.ErrNotFound) {
		t.Errorf("missing input: %v", err)
	}
	if _, err := SplitsFromFile(nn, "/odd", 0, 64); err == nil {
		t.Error("zero splits should fail")
	}
	if _, err := SplitsFromFile(nn, "/odd", 2, 0); err == nil {
		t.Error("zero record size should fail")
	}
	nn.CreateSynthetic("/empty", 0)
	if _, err := SplitsFromFile(nn, "/empty", 2, 64); err == nil {
		t.Error("empty input should fail")
	}
}

func TestSplitsMoreThanBytes(t *testing.T) {
	// More splits than records: must truncate, not emit empty splits.
	nn, _ := hdfs.NewNameNode(10, 1)
	nn.RegisterDataNode("node000")
	nn.CreateSynthetic("/tiny", 25)
	splits, err := SplitsFromFile(nn, "/tiny", 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range splits {
		if len(s.Records) == 0 {
			t.Error("empty split emitted")
		}
	}
	job := &hadoop.Job{Name: "t", Splits: splits,
		MapperFor: hadoop.StaticMapperFor(hadoop.EmptyMapper{})}
	if err := job.Validate(); err != nil {
		t.Errorf("splits do not validate: %v", err)
	}
}

func TestPiSplits(t *testing.T) {
	splits, err := PiSplits(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 8 {
		t.Fatalf("got %d splits", len(splits))
	}
	var total int64
	for i, s := range splits {
		if s.Index != i || s.Samples <= 0 {
			t.Errorf("split %d bad: %+v", i, s)
		}
		total += s.Samples
	}
	if total != 100 {
		t.Errorf("samples total %d, want 100", total)
	}
	// Remainder distribution.
	splits, _ = PiSplits(10, 3)
	want := []int64{4, 3, 3}
	for i, s := range splits {
		if s.Samples != want[i] {
			t.Errorf("split %d samples %d, want %d", i, s.Samples, want[i])
		}
	}
	if _, err := PiSplits(0, 3); err == nil {
		t.Error("zero samples should fail")
	}
	if _, err := PiSplits(10, 0); err == nil {
		t.Error("zero maps should fail")
	}
	// Fewer samples than maps: everyone still samples at least once.
	splits, _ = PiSplits(2, 5)
	for _, s := range splits {
		if s.Samples < 1 {
			t.Error("map with zero samples")
		}
	}
}

func TestTopHostsDeterministic(t *testing.T) {
	votes := map[string]int{"c": 2, "a": 2, "b": 5}
	got := topHosts(votes, 2)
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("topHosts = %v, want [b a]", got)
	}
	if got := topHosts(map[string]int{}, 2); len(got) != 0 {
		t.Errorf("empty votes gave %v", got)
	}
}
