package core

import (
	"testing"

	"hetmr/internal/perfmodel"
)

func TestNewLiveClusterValidation(t *testing.T) {
	if _, err := NewLiveCluster(0); err == nil {
		t.Error("zero nodes should fail")
	}
	c, err := NewLiveCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || c.MappersPerNode != perfmodel.MapSlotsPerNode {
		t.Error("defaults wrong")
	}
	if n := acceleratedNodes(c); n != 3 {
		t.Errorf("accelerated = %d, want 3 (default all)", n)
	}
	if c.FS.BlockSize() != perfmodel.HDFSBlockBytes {
		t.Error("default block size should be 64MB")
	}
}

func TestLiveClusterOptions(t *testing.T) {
	c, err := NewLiveCluster(4,
		WithBlockSize(1024),
		WithMappersPerNode(3),
		WithAcceleratedNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.FS.BlockSize() != 1024 {
		t.Error("fs options not applied")
	}
	if c.MappersPerNode != 3 {
		t.Error("mappers option not applied")
	}
	if n := acceleratedNodes(c); n != 2 {
		t.Errorf("accelerated = %d, want 2", n)
	}
	if c.Nodes[0].Accel == nil || c.Nodes[3].Accel != nil {
		t.Error("acceleration assignment wrong")
	}
	if c.Nodes[0].Accel.BlockBytes() != perfmodel.SPEBlockBytes {
		t.Error("SPE block size is not the paper's 4 KB")
	}
}

// acceleratedNodes counts the nodes that carry an SPE runtime.
func acceleratedNodes(c *LiveCluster) int {
	n := 0
	for _, node := range c.Nodes {
		if node.Accel != nil {
			n++
		}
	}
	return n
}
