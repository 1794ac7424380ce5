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
// output exactly once.
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

// LiveCluster is the functional two-level runtime.
type LiveCluster struct {
	FS    *hdfs.NameNode
	Nodes []*LiveNode
	// MappersPerNode is the number of concurrent mappers per node
	// (the paper runs 2, one per Cell processor).
	MappersPerNode int
	// Sched configures the dynamic scheduler every job runs under
	// (speculation, attempt caps). The zero value is plain pull
	// grants, node-local first.
	Sched sched.Options

	delays    []time.Duration
	lastStats *sched.Stats

	// Spill configuration: run stores (sorted runs, transformed
	// stream blocks) inherit the cluster's watermark so every stage
	// of a job is bounded by the same knob. spillMem < 0 means
	// unbounded memory (no spilling anywhere).
	spillDir   string
	spillMem   int64
	spillCodec spill.Codec
}

// LiveOption customizes NewLiveCluster.
type LiveOption func(*liveConfig)

type liveConfig struct {
	blockSize      int64
	mappersPerNode int
	acceleratedN   int // -1: all
	sched          sched.Options
	delays         []time.Duration
	spillDir       string
	spillMem       int64 // < 0: unbounded memory, no spilling
	spillCodec     spill.Codec
}

// WithBlockSize sets the DFS block size (default 64 MB).
func WithBlockSize(n int64) LiveOption { return func(c *liveConfig) { c.blockSize = n } }

// WithMappersPerNode sets concurrent mappers per node (default 2).
func WithMappersPerNode(m int) LiveOption { return func(c *liveConfig) { c.mappersPerNode = m } }

// WithAcceleratedNodes limits how many nodes get accelerators
// (heterogeneous cluster extension; default all).
func WithAcceleratedNodes(n int) LiveOption { return func(c *liveConfig) { c.acceleratedN = n } }

// WithScheduling configures the dynamic scheduler (speculative
// execution, per-task attempt caps) for every job the cluster runs.
// The OnCommit hook is owned by the runtime — each job installs its
// own result-commit step — so a caller-supplied hook is ignored.
func WithScheduling(o sched.Options) LiveOption {
	return func(c *liveConfig) {
		o.OnCommit = nil
		c.sched = o
	}
}

// WithTaskDelays injects a fixed artificial delay into every task a
// node executes (len must equal the node count). It is the
// straggler/fault-injection knob: conformance tests and benchmarks use
// it to make one node an order of magnitude slower than its peers.
func WithTaskDelays(delays []time.Duration) LiveOption {
	return func(c *liveConfig) { c.delays = delays }
}

// WithSpill bounds the cluster's resident data-plane memory: the DFS
// block store and every job's run store keep payloads in memory up to
// memBytes each and spill the rest to files under dir ("" selects the
// OS temp dir), through codec when non-nil. memBytes zero spills
// everything; a negative value restores the historical all-in-memory
// behaviour. With spilling on, a job's peak heap is O(blockSize ×
// concurrent mappers) regardless of input size.
func WithSpill(dir string, memBytes int64, codec spill.Codec) LiveOption {
	return func(c *liveConfig) {
		c.spillDir = dir
		c.spillMem = memBytes
		c.spillCodec = codec
	}
}

// NewLiveCluster builds a functional cluster of n nodes.
func NewLiveCluster(n int, opts ...LiveOption) (*LiveCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: cluster needs at least one node, got %d", n)
	}
	cfg := liveConfig{
		blockSize:      perfmodel.HDFSBlockBytes,
		mappersPerNode: perfmodel.MapSlotsPerNode,
		acceleratedN:   -1,
		spillMem:       -1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.delays != nil {
		if len(cfg.delays) != n {
			return nil, fmt.Errorf("core: %d task delays for %d nodes", len(cfg.delays), n)
		}
		for i, d := range cfg.delays {
			if d < 0 {
				return nil, fmt.Errorf("core: node %d has negative task delay %v", i, d)
			}
		}
	}
	var fsOpts []hdfs.Option
	if cfg.spillMem >= 0 {
		fsOpts = append(fsOpts, hdfs.WithBlockStore(
			hdfs.NewSpillBlockStore(cfg.spillDir, cfg.spillMem, cfg.spillCodec)))
	}
	nn, err := hdfs.NewNameNode(cfg.blockSize, perfmodel.ReplicationFactor, fsOpts...)
	if err != nil {
		return nil, err
	}
	c := &LiveCluster{
		FS:             nn,
		MappersPerNode: cfg.mappersPerNode,
		Sched:          cfg.sched,
		delays:         cfg.delays,
		spillDir:       cfg.spillDir,
		spillMem:       cfg.spillMem,
		spillCodec:     cfg.spillCodec,
	}
	accelerated := cfg.acceleratedN
	if accelerated < 0 {
		accelerated = n
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%03d", i)
		if _, err := nn.RegisterDataNode(name); err != nil {
			return nil, err
		}
		node := &LiveNode{Name: name}
		if i < accelerated {
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
// was built WithSpill). Idempotent; the cluster is unusable after.
func (c *LiveCluster) Close() error { return c.FS.Close() }

// newRunStore builds a per-job payload store (sorted runs, stream
// output blocks) under the cluster's spill configuration (negative
// watermark: all in memory).
func (c *LiveCluster) newRunStore() *spill.Store {
	return spill.NewStore(c.spillDir, c.spillMem, c.spillCodec)
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
