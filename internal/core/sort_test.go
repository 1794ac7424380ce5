package core

import (
	"bytes"
	"errors"
	"io"
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
	var buf bytes.Buffer
	if err := clus.RunSort("/in", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
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
	if err := clus.RunSort("/missing", io.Discard); !errors.Is(err, ErrNoInput) {
		t.Errorf("missing input: %v", err)
	}
	// Block size not a record multiple.
	bad, _ := NewLiveCluster(Config{Nodes: 1, BlockSize: 4096})
	bad.FS.WriteFile("/in", kernels.GenerateSortRecords(1, 10), "")
	if err := bad.RunSort("/in", io.Discard); err == nil {
		t.Error("non-multiple block size should fail")
	}
}

func TestRunSortSingleBlock(t *testing.T) {
	clus, _ := NewLiveCluster(Config{Nodes: 2, BlockSize: 100_000})
	data := kernels.GenerateSortRecords(5, 100) // fits one block
	clus.FS.WriteFile("/in", data, "")
	var out bytes.Buffer
	if err := clus.RunSort("/in", &out); err != nil {
		t.Fatal(err)
	}
	sorted, _ := kernels.RecordsSorted(out.Bytes())
	if !sorted {
		t.Fatal("single-block sort failed")
	}
}
