package core

import (
	"errors"
	"testing"

	"hetmr/internal/kernels"
)

func TestRunSortEndToEnd(t *testing.T) {
	clus, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 5000}) // 50 records/block
	if err != nil {
		t.Fatal(err)
	}
	data := kernels.GenerateSortRecords(11, 1000)
	if err := clus.FS.WriteFile("/in", data, ""); err != nil {
		t.Fatal(err)
	}
	if err := clus.RunSort("/in", "/out"); err != nil {
		t.Fatal(err)
	}
	out, err := clus.FS.ReadFile("/out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("output %d bytes, want %d", len(out), len(data))
	}
	sorted, err := kernels.RecordsSorted(out)
	if err != nil {
		t.Fatal(err)
	}
	if !sorted {
		t.Fatal("output not sorted")
	}
}

func TestRunSortValidation(t *testing.T) {
	clus, _ := NewLiveCluster(Config{Nodes: 1, BlockSize: 5000})
	clus.FS.WriteFile("/in", kernels.GenerateSortRecords(1, 10), "")
	if err := clus.RunSort("/in", ""); err == nil {
		t.Error("empty output should fail")
	}
	if err := clus.RunSort("/missing", "/out"); !errors.Is(err, ErrNoInput) {
		t.Errorf("missing input: %v", err)
	}
	// Block size not a record multiple.
	bad, _ := NewLiveCluster(Config{Nodes: 1, BlockSize: 4096})
	bad.FS.WriteFile("/in", kernels.GenerateSortRecords(1, 10), "")
	if err := bad.RunSort("/in", "/out"); err == nil {
		t.Error("non-multiple block size should fail")
	}
}

func TestRunSortSingleBlock(t *testing.T) {
	clus, _ := NewLiveCluster(Config{Nodes: 2, BlockSize: 100_000})
	data := kernels.GenerateSortRecords(5, 100) // fits one block
	clus.FS.WriteFile("/in", data, "")
	if err := clus.RunSort("/in", "/out"); err != nil {
		t.Fatal(err)
	}
	out, _ := clus.FS.ReadFile("/out")
	sorted, _ := kernels.RecordsSorted(out)
	if !sorted {
		t.Fatal("single-block sort failed")
	}
}
