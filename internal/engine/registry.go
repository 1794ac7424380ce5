package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/perfmodel"
	"hetmr/internal/spill"
)

// ErrUnknownBackend is wrapped by New for unregistered names.
var ErrUnknownBackend = errors.New("engine: unknown backend")

// ErrUnsupported is wrapped when a backend cannot honour a configuration
// (the "empty" mapper off sim, Quotas off net, a Sink on a dataset sim
// only models) or a Kill or Status without a job service; every backend
// runs every job Kind.
var ErrUnsupported = errors.New("engine: configuration not supported by backend")

// Config parameterizes a backend at construction time. The zero value
// selects sensible defaults everywhere.
type Config struct {
	// Workers is the cluster's worker-node count (default 4).
	Workers int
	// BlockSize is the DFS block size functional backends cut input
	// into (default 64 000 bytes — a multiple of the 100-byte TeraSort
	// record, so Sort jobs work out of the box). All backends must
	// agree on it for block-boundary semantics to agree.
	BlockSize int64
	// MappersPerNode bounds concurrent map tasks per node (default: the
	// paper's 2): live's node slots, net's netmr.Config.Slots and sim's
	// hadoop.Config.MapSlots.
	MappersPerNode int
	// Reducers is the net backend's distributed reduce-task count for
	// its shuffling kinds, Wordcount and Sort (0: one reduce task per
	// worker). The other backends have no partitioned shuffle and
	// ignore it. Negative counts are rejected here, at the API
	// boundary, instead of panicking in the partition hash mid-shuffle.
	Reducers int
	// Mapper selects the mapper variant: "cell" (accelerated, the
	// default), "java" (host path) or "empty" (simulated backend
	// only: reads records, computes nothing). The sim backend honours
	// it for every kind. The net backend honours it for every kind
	// too: "cell" offloads pi, aes-ctr and wordcount map tasks to the
	// accelerated trackers' per-node device with a bit-identical host
	// fallback elsewhere. The live backend offloads only Encrypt —
	// its Pi jobs always run the host path so results stay
	// bit-identical across backends, and wordcount/sort have no
	// accelerated kernel there.
	Mapper string
	// AccelFraction is the fraction of nodes carrying accelerators
	// (live, simulated and net backends; on net it decides which
	// trackers own a per-node device). The zero value selects the
	// default of 1.0 (fully accelerated, the paper's baseline); use
	// NoAcceleration for a cluster with no accelerators at all.
	// ResolveAccelFraction is the single copy of that convention.
	AccelFraction float64
	// Speculative enables speculative execution of straggler tasks on
	// the live, net and simulated backends: when idle capacity appears
	// and no pending work remains, the scheduler duplicates the
	// longest-running in-flight task and the first finished attempt
	// wins. Job results are bit-identical with it on or off.
	Speculative bool
	// MaxAttempts is the per-task attempt cap of the live, net and
	// simulated backends' task board (sched.Options.MaxAttempts): a
	// task whose attempts report that many errors fails the job, and a
	// task launched that many times is not duplicated speculatively
	// (the only half that applies on sim, whose modelled attempts never
	// report errors). 0 selects the scheduler default.
	MaxAttempts int
	// FaultDelays injects a fixed artificial delay into every task a
	// worker executes (len must be 0 or Workers), on the live and net
	// backends — the straggler fault-injection knob the conformance
	// suite and benchmarks use. Nil injects nothing.
	FaultDelays []time.Duration
	// JobTimeout bounds one submitted job's end-to-end run on the net
	// backend (Submit through Wait). 0 selects DefaultJobTimeout;
	// raise it for large inputs or slow CI machines instead of hitting
	// an arbitrary cliff. Negative is an error.
	JobTimeout time.Duration
	// SpillMemBytes bounds the resident memory of every data-plane
	// store on the functional backends — the live runner's DFS block
	// store and per-job run stores, the net runtime's DataNode block
	// stores and tracker shuffle stores. Payloads above the watermark
	// spill to disk and stream back transparently. 0 keeps everything
	// in memory (the historical behaviour); SpillAll spills every
	// payload; other negative values are an error. With a watermark
	// set, a job's peak heap is O(blockSize × workers) regardless of
	// input size.
	SpillMemBytes int64
	// SpillDir is the parent directory for spill files ("" selects
	// the OS temp dir). Stores create and remove their own
	// subdirectories.
	SpillDir string
	// Quotas installs per-tenant fair-share weights and admission
	// limits on the net backend's JobTracker (see Quota). Only the net
	// backend runs a multi-tenant service; the others reject a
	// non-empty map with ErrUnsupported rather than silently running
	// without enforcement.
	Quotas map[string]Quota
	// RangePartition is read by nothing. Range routing is how the net
	// backend sorts — every net Sort with more than one reducer samples
	// split keys on ingest — not an option, and the other backends sort
	// fully in process. The field survives only because the frozen
	// benchmark module names it in a composite literal; it goes with the
	// next PR allowed to edit bench/.
	//
	//hetlint:configdrop-ok * Config.RangePartition inert: kept so bench/workloads.go compiles until the benchmark-only PR deletes the field
	RangePartition bool
}

// Quota bounds one tenant on the multi-tenant net backend. It is
// netmr.Quota, the enforcing layer's type: the zero value means
// unlimited at fair-share weight 1.
type Quota = netmr.Quota

// DefaultJobTimeout is the net backend's per-job deadline when
// Config.JobTimeout is zero; loopback jobs finish in
// milliseconds-to-seconds, so this is generous.
const DefaultJobTimeout = 2 * time.Minute

// SpillAll is the Config.SpillMemBytes value that spills every
// data-plane payload to disk (the field's zero value means "never
// spill"). It is spill.SpillAll: the watermark means the same thing at
// every layer down to the stores.
const SpillAll = spill.SpillAll

// withDefaults resolves zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("engine: negative worker count %d", c.Workers)
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64_000
	}
	if c.BlockSize < 0 {
		return c, fmt.Errorf("engine: negative block size %d", c.BlockSize)
	}
	if c.MappersPerNode == 0 {
		c.MappersPerNode = perfmodel.MapSlotsPerNode
	}
	if c.Mapper == "" {
		c.Mapper = "cell"
	}
	switch c.Mapper {
	case "cell", "java", "empty":
	default:
		return c, fmt.Errorf("engine: unknown mapper variant %q (cell|java|empty)", c.Mapper)
	}
	frac, err := ResolveAccelFraction(c.AccelFraction)
	if err != nil {
		return c, err
	}
	c.AccelFraction = frac
	if c.Reducers < 0 {
		return c, fmt.Errorf("engine: negative reducer count %d", c.Reducers)
	}
	if c.JobTimeout < 0 {
		return c, fmt.Errorf("engine: negative job timeout %v", c.JobTimeout)
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = DefaultJobTimeout
	}
	if c.SpillMemBytes < SpillAll {
		return c, fmt.Errorf("engine: spill watermark %d (0: never spill, SpillAll: everything, >0: bytes in memory)", c.SpillMemBytes)
	}
	if c.MaxAttempts < 0 {
		return c, fmt.Errorf("engine: negative attempt cap %d", c.MaxAttempts)
	}
	if c.FaultDelays != nil && len(c.FaultDelays) != c.Workers {
		return c, fmt.Errorf("engine: %d fault delays for %d workers", len(c.FaultDelays), c.Workers)
	}
	for i, d := range c.FaultDelays {
		if d < 0 {
			return c, fmt.Errorf("engine: worker %d has negative fault delay %v", i, d)
		}
	}
	return c, nil
}

// NoAcceleration is the AccelFraction value for a cluster without any
// accelerated nodes (the field's zero value means "default", i.e.
// fully accelerated).
const NoAcceleration = -1

// ResolveAccelFraction maps the Config.AccelFraction convention onto a
// plain fraction in [0,1]: the zero value selects the paper's
// fully-accelerated baseline, NoAcceleration selects an all-host
// cluster, anything outside [0,1] is an error. Every consumer of the
// knob — withDefaults, the backends — routes through this one resolver, so 0 can never mean "default" in one
// place and "none" in another.
func ResolveAccelFraction(f float64) (float64, error) {
	switch {
	case f == 0:
		return 1, nil
	case f == NoAcceleration:
		return 0, nil
	case math.IsNaN(f) || f < 0 || f > 1:
		// NaN must be named explicitly: every comparison against it is
		// false, so it would otherwise fall through as "valid".
		return 0, fmt.Errorf("engine: accelerated fraction %g outside [0,1]", f)
	}
	return f, nil
}

// acceleratedNodes resolves the accelerated-node count: the fraction
// of Workers rounded to the nearest node. It is computed here once and
// handed as a count to every backend (live's core.Config, net's device
// profiles, sim's cluster), so one Config builds the same hardware
// everywhere. Callers run after withDefaults, so AccelFraction is
// already a plain fraction in [0,1].
func (c Config) acceleratedNodes() int {
	return int(c.AccelFraction*float64(c.Workers) + 0.5)
}

// validateJob checks a job against this backend configuration at the
// API boundary — the shared Submit-time gate every runner calls, so a
// shape mismatch errors up front instead of corrupting records
// mid-job.
func (c Config) validateJob(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Sink != nil && j.Kind != Sort && j.Kind != Encrypt {
		return fmt.Errorf("engine: %s job cannot stream to a Sink (byte-output kinds only)", j.Kind)
	}
	if j.Kind == Sort {
		// A block size that is not a whole number of records would
		// silently split records across block boundaries and sort
		// garbage.
		if c.BlockSize%kernels.SortRecordBytes != 0 {
			return fmt.Errorf("engine: sort needs a block size that is a multiple of the %d-byte record, got %d",
				kernels.SortRecordBytes, c.BlockSize)
		}
		if len(j.Input) > 0 && len(j.Input)%kernels.SortRecordBytes != 0 {
			return fmt.Errorf("engine: sort input of %d bytes is not a whole number of %d-byte records",
				len(j.Input), kernels.SortRecordBytes)
		}
		if len(j.Input) == 0 && j.Source == nil && j.InputBytes%kernels.SortRecordBytes != 0 {
			return fmt.Errorf("engine: synthetic sort input of %d bytes is not a whole number of %d-byte records",
				j.InputBytes, kernels.SortRecordBytes)
		}
	}
	return nil
}

// Factory builds one backend runner.
type Factory func(cfg Config) (Runner, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a backend under a unique name. It panics on duplicate
// registration, mirroring database/sql drivers.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("engine: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: backend %q already registered", name))
	}
	registry[name] = f
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named backend with the given configuration.
func New(name string, cfg Config) (Runner, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownBackend, name, Backends())
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

// RunOnce is the convenience path for one-shot jobs: build the named
// backend, run the job, close the backend.
func RunOnce(backend string, cfg Config, job *Job) (*Result, error) {
	r, err := New(backend, cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Run(job)
}
