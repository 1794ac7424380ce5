// Package core implements the paper's primary contribution: a
// MapReduce execution environment that exploits both levels of
// parallelism in a heterogeneous cluster — distribution of splits
// across nodes (level 1, Hadoop-style) and offload of each mapper's
// records onto the node's Cell BE SPEs in 4 KB blocks (level 2).
//
// LiveCluster runs the engine's four job kinds for real — word count
// (RunWordCount), sort (RunSort), block transforms such as encryption
// (RunStream) and Pi (RunPiTasks) — on goroutine-backed nodes, real
// bytes in the in-process block namespace (internal/hdfs, at the
// paper's replication 1: nodes never leave, so there is no failover or
// repair here) and real kernels on the functional Cell model. Each job
// is a set of tasks on the dynamic scheduler (internal/sched); a data
// job's commit hook folds each block's winning result into the job's
// output exactly once. Only a job's input lives in the DFS: RunSort and
// RunStream write their result into the caller's io.Writer.
//
// The simulated runner (internal/hadoop on internal/sim) replays the
// same architecture against the calibrated performance model at the
// paper's 66-blade scale. Package core knows nothing of it;
// internal/workload builds its splits from the same DFS layouts.
package core

import (
	"errors"
	"fmt"
	"time"

	"hetmr/internal/cellbe"
	"hetmr/internal/hdfs"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sched"
	"hetmr/internal/spill"
	"hetmr/internal/spurt"
)

// LiveNode is one worker of the live (functional) cluster: a name the
// DFS knows it by, plus the SPE runtime of the node's Cell chip.
type LiveNode struct {
	Name string
	// Accel is the node's direct SPE offload runtime (nil on
	// non-accelerated nodes of a heterogeneous cluster).
	Accel *spurt.Runtime
}

// Config is what a LiveCluster is built from. The zero value of each
// field selects its default.
type Config struct {
	// Nodes is the worker count (at least 1).
	Nodes int
	// BlockSize is the DFS block size (0: the paper's 64 MB).
	BlockSize int64
	// MappersPerNode is the number of concurrent mappers per node (0:
	// the paper's 2, one per Cell processor).
	MappersPerNode int
	// AcceleratedNodes is how many nodes, counted from the first, carry
	// a Cell SPE runtime; the rest are general-purpose nodes (the
	// paper's §V heterogeneous cluster).
	AcceleratedNodes int
	// Sched configures the dynamic scheduler every job runs under
	// (speculation, attempt caps). The zero value is plain pull grants,
	// node-local first. The OnCommit hook is owned by the runtime —
	// each job installs its own result-commit step — so a supplied hook
	// is ignored.
	Sched sched.Options
	// TaskDelays injects a fixed artificial delay into every task a
	// node executes (len 0 or Nodes) — the straggler fault-injection
	// knob conformance tests and benchmarks use to make one node an
	// order of magnitude slower than its peers.
	TaskDelays []time.Duration
	// SpillMem bounds the cluster's resident data-plane memory: the DFS
	// block store and every job's run store (sorted runs, transformed
	// stream blocks) each hold payloads in memory up to this watermark,
	// in spill.New's convention — 0 keeps everything in memory,
	// spill.SpillAll spills everything. With a positive watermark a
	// job's peak heap is O(blockSize × concurrent mappers) regardless of
	// input size.
	SpillMem int64
	// SpillDir is the parent of the stores' spill directories ("": the
	// OS temp dir).
	SpillDir string
}

// LiveCluster is the functional two-level runtime.
type LiveCluster struct {
	FS    *hdfs.NameNode
	Nodes []*LiveNode

	cfg       Config
	lastStats *sched.Stats
}

// NewLiveCluster builds a functional cluster from cfg.
func NewLiveCluster(cfg Config) (*LiveCluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one node, got %d", cfg.Nodes)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = perfmodel.HDFSBlockBytes
	}
	if cfg.MappersPerNode == 0 {
		cfg.MappersPerNode = perfmodel.MapSlotsPerNode
	}
	cfg.Sched.OnCommit = nil
	if cfg.TaskDelays != nil {
		if len(cfg.TaskDelays) != cfg.Nodes {
			return nil, fmt.Errorf("core: %d task delays for %d nodes", len(cfg.TaskDelays), cfg.Nodes)
		}
		for i, d := range cfg.TaskDelays {
			if d < 0 {
				return nil, fmt.Errorf("core: node %d has negative task delay %v", i, d)
			}
		}
	}
	nn, err := hdfs.NewNameNode(cfg.BlockSize, perfmodel.ReplicationFactor,
		hdfs.WithBlockStore(hdfs.NewSpillBlockStore(cfg.SpillDir, cfg.SpillMem)))
	if err != nil {
		return nil, err
	}
	c := &LiveCluster{FS: nn, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%03d", i)
		if _, err := nn.RegisterDataNode(name); err != nil {
			return nil, err
		}
		node := &LiveNode{Name: name}
		if i < cfg.AcceleratedNodes {
			rt, err := spurt.New(cellbe.NewChip(0), perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
			if err != nil {
				return nil, err
			}
			node.Accel = rt
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Close releases the DFS block store (spill files, when the cluster
// spills). Idempotent; the cluster is unusable after.
func (c *LiveCluster) Close() error { return c.FS.Close() }

// newRunStore builds a per-job payload store (sorted runs, stream
// output blocks) under the cluster's spill watermark, so every stage
// of a job is bounded by the same knob.
func (c *LiveCluster) newRunStore() *spill.Store[int] {
	return spill.New[int](c.cfg.SpillDir, c.cfg.SpillMem)
}

// LastStats returns the dynamic scheduler's per-worker stats for the
// most recently finished job (nil before the first run). The cluster
// is not goroutine-safe; read between jobs.
func (c *LiveCluster) LastStats() *sched.Stats { return c.lastStats }

// nodeByName finds a live node.
func (c *LiveCluster) nodeByName(name string) (*LiveNode, bool) {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// ErrNoInput is returned when a job's input file does not exist.
var ErrNoInput = errors.New("core: job input file not found")
