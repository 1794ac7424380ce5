package core

import (
	"testing"
	"time"

	"hetmr/internal/perfmodel"
)

func TestNewLiveClusterValidation(t *testing.T) {
	if _, err := NewLiveCluster(Config{}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := NewLiveCluster(Config{Nodes: 2, TaskDelays: make([]time.Duration, 3)}); err == nil {
		t.Error("a task delay per node is required")
	}
	c, err := NewLiveCluster(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || c.cfg.MappersPerNode != perfmodel.MapSlotsPerNode {
		t.Error("defaults wrong")
	}
	if n := acceleratedNodes(c); n != 0 {
		t.Errorf("accelerated = %d, want 0 (AcceleratedNodes is a count)", n)
	}
	if c.FS.BlockSize() != perfmodel.HDFSBlockBytes {
		t.Error("default block size should be 64MB")
	}
}

func TestLiveClusterConfig(t *testing.T) {
	c, err := NewLiveCluster(Config{Nodes: 4, BlockSize: 1024, MappersPerNode: 3, AcceleratedNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.FS.BlockSize() != 1024 {
		t.Error("block size not applied")
	}
	if c.cfg.MappersPerNode != 3 {
		t.Error("mappers per node not applied")
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
