package cluster

import (
	"testing"

	"hetmr/internal/perfmodel"
	"hetmr/internal/sim"
)

func TestNewClusterDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if c.AcceleratedCount() != 4 {
		t.Errorf("accelerated = %d, want all", c.AcceleratedCount())
	}
	for i, n := range c.Nodes {
		if n.Name != WorkerName(i) {
			t.Errorf("node %d named %q", i, n.Name)
		}
		if n.NIC.Rate() != perfmodel.GbEBytesPerSecond {
			t.Errorf("node %d NIC rate %g", i, n.NIC.Rate())
		}
		if n.Loopback.Rate() != perfmodel.LoopbackDeliveryBytesPerSec {
			t.Errorf("node %d loopback rate %g", i, n.Loopback.Rate())
		}
		if n.Disk.Rate() != perfmodel.DiskBytesPerSecond {
			t.Errorf("node %d disk rate %g", i, n.Disk.Rate())
		}
	}
	if c.Master == nil || c.Master.Name != "master" {
		t.Error("master missing")
	}
}

func TestNewClusterValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, n := range []int{0, -3} {
		if _, err := New(eng, n); err == nil {
			t.Errorf("New(%d) should fail", n)
		}
	}
}

func TestClusterOptions(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, 8,
		WithAcceleratedNodes(4),
		WithLoopbackRate(99))
	if err != nil {
		t.Fatal(err)
	}
	if c.AcceleratedCount() != 4 {
		t.Errorf("accelerated = %d, want 4", c.AcceleratedCount())
	}
	// The accelerated nodes are a prefix (deterministic layout).
	for i, n := range c.Nodes {
		want := i < 4
		if n.Accelerated != want {
			t.Errorf("node %d accelerated = %v", i, n.Accelerated)
		}
	}
	n := c.Nodes[0]
	if n.Loopback.Rate() != 99 {
		t.Error("loopback rate option not applied")
	}
}

func TestByName(t *testing.T) {
	eng := sim.NewEngine(1)
	c, _ := New(eng, 2)
	if _, ok := c.ByName(WorkerName(1)); !ok {
		t.Error("worker lookup failed")
	}
	if _, ok := c.ByName("master"); !ok {
		t.Error("master lookup failed")
	}
	if _, ok := c.ByName("ghost"); ok {
		t.Error("ghost node found")
	}
}

func TestWorkerNameFormat(t *testing.T) {
	if WorkerName(0) != "node000" || WorkerName(65) != "node065" {
		t.Errorf("names: %q %q", WorkerName(0), WorkerName(65))
	}
}

func TestAcceleratedNodesEdges(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, tc := range []struct{ n, want int }{{0, 0}, {1, 1}, {3, 3}, {5, 3}} {
		c, _ := New(eng, 3, WithAcceleratedNodes(tc.n))
		if c.AcceleratedCount() != tc.want {
			t.Errorf("%d of 3 accelerated: %d, want %d", tc.n, c.AcceleratedCount(), tc.want)
		}
	}
}
