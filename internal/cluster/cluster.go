// Package cluster models the paper's testbed topology: a variable
// number of IBM QS22 worker blades (dual Cell BE, DataNode + two map
// slots each) plus one JS22 Power6 master blade (JobTracker +
// NameNodes), all on Gigabit Ethernet. Each node carries the three
// shared media the experiments exercise: its GbE NIC, the loopback
// path the Hadoop RecordReader uses to move records from the
// co-located DataNode into the Mappers, and its local disk.
package cluster

import (
	"fmt"

	"hetmr/internal/perfmodel"
	"hetmr/internal/sim"
)

// Node is one blade of the simulated cluster.
type Node struct {
	Name string
	// Accelerated marks nodes with usable Cell SPEs. The paper's
	// cluster is fully accelerated; the heterogeneous-cluster
	// extension (paper §V) builds mixed clusters.
	Accelerated bool

	// NIC is the node's Gigabit Ethernet interface (shared by all
	// flows in or out of the node).
	NIC *sim.Link
	// Loopback is the effective DataNode->Mapper record delivery path
	// ("the loopback interface"), shared by the node's concurrent
	// mappers. Its calibrated rate is deliberately the measured
	// effective rate, not the interface's nominal capacity, per the
	// paper's observation.
	Loopback *sim.Link
	// Disk is the node's local disk (DataNode storage, map output
	// spills).
	Disk *sim.Link
}

// Cluster is the simulated testbed.
type Cluster struct {
	Eng    *sim.Engine
	Master *Node
	Nodes  []*Node
	byName map[string]*Node
}

// Option customizes cluster construction.
type Option func(*config)

type config struct {
	acceleratedNodes int
	loopbackRate     float64
}

// WithAcceleratedNodes builds a heterogeneous cluster where only the
// first n worker nodes have accelerators — the paper's §V "increasing
// level of heterogeneity" scenario. The default is all of them.
func WithAcceleratedNodes(n int) Option {
	return func(c *config) { c.acceleratedNodes = n }
}

// WithLoopbackRate overrides the effective record-delivery rate
// (bytes/s), used by ablation benchmarks.
func WithLoopbackRate(r float64) Option {
	return func(c *config) { c.loopbackRate = r }
}

// New builds a cluster of nWorkers QS22-like worker nodes plus the
// JS22-like master on the given engine.
func New(eng *sim.Engine, nWorkers int, opts ...Option) (*Cluster, error) {
	if nWorkers <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", nWorkers)
	}
	cfg := config{
		acceleratedNodes: nWorkers,
		loopbackRate:     perfmodel.LoopbackDeliveryBytesPerSec,
	}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cluster{Eng: eng, byName: make(map[string]*Node)}
	for i := 0; i < nWorkers; i++ {
		name := WorkerName(i)
		n := &Node{
			Name:        name,
			Accelerated: i < cfg.acceleratedNodes,
			NIC:         sim.NewLink(eng, name+"/nic", perfmodel.GbEBytesPerSecond),
			Loopback:    sim.NewLink(eng, name+"/lo", cfg.loopbackRate),
			Disk:        sim.NewLink(eng, name+"/disk", perfmodel.DiskBytesPerSecond),
		}
		c.Nodes = append(c.Nodes, n)
		c.byName[name] = n
	}
	c.Master = &Node{
		Name:     "master",
		NIC:      sim.NewLink(eng, "master/nic", perfmodel.GbEBytesPerSecond),
		Loopback: sim.NewLink(eng, "master/lo", cfg.loopbackRate),
		Disk:     sim.NewLink(eng, "master/disk", perfmodel.DiskBytesPerSecond),
	}
	c.byName["master"] = c.Master
	return c, nil
}

// WorkerName returns the canonical name of worker i.
func WorkerName(i int) string { return fmt.Sprintf("node%03d", i) }

// ByName looks a node up by name (workers and master).
func (c *Cluster) ByName(name string) (*Node, bool) {
	n, ok := c.byName[name]
	return n, ok
}

// AcceleratedCount returns the number of accelerator-equipped workers.
func (c *Cluster) AcceleratedCount() int {
	n := 0
	for _, node := range c.Nodes {
		if node.Accelerated {
			n++
		}
	}
	return n
}
