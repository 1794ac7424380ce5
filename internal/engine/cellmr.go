package engine

import (
	"fmt"
	"time"

	"hetmr/internal/cellbe"
	"hetmr/internal/cellmr"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
)

// cellmrRunner executes jobs on the node-level Cell MapReduce
// framework (internal/cellmr): one chip, SPE workers, the PPE staging
// copy the paper's Figure 2 charges the framework for. It is a
// single-node backend — Workers is ignored, and the cluster-level
// scheduling knobs (Speculative, MaxAttempts, FaultDelays) are
// accepted but inert: the framework's intra-chip block distribution is
// already dynamic (SPEs pull 4 KB blocks), and there is no second node
// to share work with or speculate on. The framework's one mode is a
// block stream (RunStream), so only Encrypt is supported.
type cellmrRunner struct {
	cfg Config
	fw  *cellmr.Framework
}

func init() {
	// The type comment above spells out why the cluster-level knobs
	// are inert on a single-node framework; the directives make each
	// acknowledged drop checkable instead of prose.
	//hetlint:configdrop-ok cellmr Config.Workers single node: the chip is the whole cluster
	//hetlint:configdrop-ok cellmr Config.MappersPerNode SPE count is fixed by the hardware model (perfmodel.SPEsPerCell)
	//hetlint:configdrop-ok cellmr Config.Reducers RunStream has no reduce phase; only Encrypt is accepted
	//hetlint:configdrop-ok cellmr Config.Speculative no second node to speculate on
	//hetlint:configdrop-ok cellmr Config.MaxAttempts intra-chip blocks are retried by the framework, not re-scheduled
	//hetlint:configdrop-ok cellmr Config.FaultDelays live-cluster fault injection; the chip model has no tracker to delay
	//hetlint:configdrop-ok cellmr Config.JobTimeout synchronous single-node run; nothing remote to abandon
	//hetlint:configdrop-ok cellmr Config.SpillMemBytes the PPE staging buffer is the framework's whole memory model
	//hetlint:configdrop-ok cellmr Config.SpillDir no spill layer on the single-node framework
	//hetlint:configdrop-ok cellmr Config.SpillCompress no spill layer on the single-node framework
	//hetlint:configdrop-ok cellmr Config.Racks single node: there is no second rack
	//hetlint:configdrop-ok cellmr Job.Name job names label tracker/DFS state, which the framework does not keep
	//hetlint:configdrop-ok cellmr Job.Seed Seed shards Pi sampling; cellmr accepts only Encrypt
	//hetlint:configdrop-ok cellmr Job.Tenant tenancy is the net job service's concept; Quotas are already rejected below
	Register("cellmr", func(cfg Config) (Runner, error) {
		if cfg.Timeline {
			return nil, fmt.Errorf("%w: Timeline is rendered from the simulated JobTracker's task log and only exists on the sim backend", ErrUnsupported)
		}
		// The framework IS the accelerated path: a config asking for
		// the host mapper or a partially-accelerated cluster cannot be
		// honoured here, and silently running the fully-accelerated
		// single node instead would be a different job.
		if cfg.Mapper != "cell" {
			return nil, fmt.Errorf("%w: mapper %q on cellmr — the framework is the accelerated node runtime", ErrUnsupported, cfg.Mapper)
		}
		if cfg.AccelFraction != 1 {
			return nil, fmt.Errorf("%w: accelerated fraction %g on cellmr — the single-node framework is fully accelerated", ErrUnsupported, cfg.AccelFraction)
		}
		if len(cfg.Quotas) > 0 {
			return nil, fmt.Errorf("%w: per-tenant quotas only exist on the net backend's job service", ErrUnsupported)
		}
		fw, err := cellmr.New(cellbe.NewChip(0), perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
		if err != nil {
			return nil, err
		}
		return &cellmrRunner{cfg: cfg, fw: fw}, nil
	})
}

// Backend implements Runner.
func (r *cellmrRunner) Backend() string { return "cellmr" }

// Close implements Runner.
func (r *cellmrRunner) Close() error { return nil }

// Run implements Runner.
func (r *cellmrRunner) Run(job *Job) (*Result, error) {
	if err := r.cfg.validateJob(job); err != nil {
		return nil, err
	}
	if job.Kind != Encrypt {
		return nil, fmt.Errorf("%w: %s on cellmr", ErrUnsupported, job.Kind)
	}
	start := time.Now()
	// The single-node framework streams SPE-block by SPE-block inside
	// RunStream but works over one resident buffer — materialize a
	// streamed Source (cellmr is the node-level runtime, not the
	// above-RAM path).
	input, err := job.materializeInput()
	if err != nil {
		return nil, err
	}
	cipher, err := kernels.NewCipher(job.Key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(input))
	ctr := kernels.CTRBlockFuncFast(cipher, job.iv())
	if err := r.fw.RunStream(ctr, input, out); err != nil {
		return nil, err
	}
	res := &Result{Backend: r.Backend()}
	if err := job.writeOutput(res, out); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
