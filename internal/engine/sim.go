package engine

import (
	"fmt"
	"io"
	"time"

	"hetmr/internal/cluster"
	"hetmr/internal/experiments"
	"hetmr/internal/hadoop"
	"hetmr/internal/hdfs"
	"hetmr/internal/kernels"
	"hetmr/internal/workload"
)

// simRunner executes jobs against the calibrated performance model:
// the discrete-event Hadoop runtime (internal/hadoop on internal/sim)
// supplies the modelled makespan, locality, attempts and energy, while
// the functional result is computed in-process with the same kernels
// and the same block/task decomposition the other backends use — the
// simulator replays the architecture's timing, not its dataflow.
type simRunner struct {
	cfg Config
}

func init() {
	// The simulator models the architecture's timing, not its data
	// plane or its fault injection — these knobs configure machinery
	// that has no counterpart in the model. Each is acknowledged
	// rather than rejected: the conformance suite runs one Config
	// across every backend, and the model's own calibrated defaults
	// (perfmodel) stand in for what the knob would tune.
	//hetlint:configdrop-ok sim Config.Reducers the model's reduce phase uses calibrated ReduceSlots; Reducers shapes only the net backend's real shuffle
	//hetlint:configdrop-ok sim Config.FaultDelays fault injection on the model goes through KillNode-style hooks, not live-cluster task delays
	//hetlint:configdrop-ok sim Config.JobTimeout simulated virtual time completes in wall-milliseconds; there is no remote wait to bound
	//hetlint:configdrop-ok sim Config.SpillMemBytes the timing model has no real data plane to spill
	//hetlint:configdrop-ok sim Config.SpillDir the timing model has no real data plane to spill
	//hetlint:configdrop-ok sim Job.Tenant tenancy is the net job service's concept; Quotas are already rejected below
	Register("sim", func(cfg Config) (Runner, error) {
		if len(cfg.Quotas) > 0 {
			return nil, fmt.Errorf("%w: per-tenant quotas only exist on the net backend's job service", ErrUnsupported)
		}
		return &simRunner{cfg: cfg}, nil
	})
}

// Backend implements Runner.
func (r *simRunner) Backend() string { return "sim" }

// hardware is the modelled cluster's node profile: the engine's
// accelerated-node count, the same the live and net backends build.
func (r *simRunner) hardware() []cluster.Option {
	return []cluster.Option{cluster.WithAcceleratedNodes(r.cfg.acceleratedNodes())}
}

// Close implements Runner.
func (r *simRunner) Close() error { return nil }

// blocks cuts data into the configured block size — the same
// boundaries the functional backends' DFS layers produce.
func (r *simRunner) blocks(data []byte) [][]byte {
	var out [][]byte
	bs := int(r.cfg.BlockSize)
	for off := 0; off < len(data); off += bs {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out
}

// maxFunctionalSyntheticBytes bounds how large a synthetic
// (InputBytes) dataset the simulated backend materializes for its
// functional result. Above it — the paper models 120 GB working sets
// — the run is timing-only, as it always was. Streaming (Source)
// jobs materialize whatever they carry: the caller chose to hand the
// modelling backend real bytes.
const maxFunctionalSyntheticBytes = 64 << 20

// functionalInput resolves the bytes the functional pass computes
// over: Input, a consumed Source, or a small synthetic dataset. nil
// means a modelled-size-only run.
func (r *simRunner) functionalInput(job *Job) ([]byte, error) {
	if len(job.Input) > 0 {
		return job.Input, nil
	}
	if job.Source != nil {
		return io.ReadAll(job.Source)
	}
	if job.InputBytes > 0 && job.InputBytes <= maxFunctionalSyntheticBytes {
		return syntheticInput(job.InputBytes), nil
	}
	return nil, nil
}

// functional computes the job's real result with the shared kernels.
// data is the resolved dataset for data kinds (nil: timing-only).
func (r *simRunner) functional(job *Job, data []byte, res *Result) error {
	switch job.Kind {
	case Wordcount:
		if len(data) == 0 {
			return nil // modelled size: timing-only run
		}
		// A word ends at a block's end, as it does in a map task's.
		var counts kernels.WordTable
		for _, blk := range r.blocks(data) {
			counts.Add(blk)
		}
		run, _ := counts.Runs(1)
		var err error
		res.Pairs, err = pairsFromRun(run)
		return err
	case Sort:
		if len(data) == 0 {
			return nil
		}
		blks := r.blocks(data)
		runs := make([][]byte, len(blks))
		for i, blk := range blks {
			var err error
			if runs[i], err = kernels.SortedRecords(blk); err != nil {
				return err
			}
		}
		merged, err := kernels.MergeSortedRuns(runs)
		if err != nil {
			return err
		}
		return job.writeOutput(res, merged)
	case Encrypt:
		if len(data) == 0 {
			return nil
		}
		cipher, err := kernels.NewCipher(job.Key)
		if err != nil {
			return err
		}
		out := make([]byte, len(data))
		kernels.CTRStreamFast(cipher, job.iv(), 0, out, data)
		return job.writeOutput(res, out)
	case Pi:
		if job.Samples > maxFunctionalPiSamples {
			return nil // paper-scale sweep: timing-only run
		}
		var inside, total int64
		for _, t := range job.piTasks(r.cfg.Workers) {
			inside += kernels.CountInside(t.Seed, t.Samples)
			total += t.Samples
		}
		res.Inside, res.Total = inside, total
		res.Pi = kernels.EstimatePi(inside, total)
	}
	return nil
}

// maxFunctionalPiSamples bounds how many Monte Carlo samples the
// simulated backend actually draws. Above it — the paper sweeps up to
// 10^12 — the run is timing-only, exactly as data jobs given a
// paper-scale synthetic size are: the simulator's duty is the model,
// and really sampling at that scale would take hours.
const maxFunctionalPiSamples = 200_000_000

// mapperFor resolves the configured mapper variant for the job kind.
// Data kinds use the paper's data-intensive (AES) cost calibration;
// Pi uses the CPU-intensive calibration.
func (r *simRunner) mapperFor(kind Kind) (func(*cluster.Node) hadoop.Mapper, error) {
	data := kind != Pi
	switch r.cfg.Mapper {
	case "java":
		if data {
			return hadoop.StaticMapperFor(hadoop.JavaAESMapper{}), nil
		}
		return hadoop.StaticMapperFor(hadoop.JavaPiMapper{}), nil
	case "cell":
		if data {
			return hadoop.AcceleratedMapperFor(hadoop.CellAESMapper{}, hadoop.JavaAESMapper{}), nil
		}
		return hadoop.AcceleratedMapperFor(hadoop.CellPiMapper{}, hadoop.JavaPiMapper{}), nil
	case "empty":
		return hadoop.StaticMapperFor(hadoop.EmptyMapper{}), nil
	}
	return nil, fmt.Errorf("engine: unknown mapper variant %q", r.cfg.Mapper)
}

// buildSplits lays the job's input out on the simulated DFS. data is
// the resolved dataset (nil: modelled size only).
func (r *simRunner) buildSplits(job *Job, data []byte) func(nn *hdfs.NameNode, nodes []string) ([]hadoop.Split, error) {
	return func(nn *hdfs.NameNode, nodes []string) ([]hadoop.Split, error) {
		if job.Kind == Pi {
			return workload.PiSplits(job.Samples, normalizeTasks(job.Tasks, r.cfg.Workers))
		}
		if len(data) == 0 {
			// Modelled-size dataset: the paper's Fig. 3 layout, one
			// pinned sub-file per mapper.
			nMappers := len(nodes) * r.cfg.MappersPerNode
			per := job.InputBytes / int64(nMappers)
			if per <= 0 {
				per = 1
			}
			return workload.EncryptionDataset(nn, nodes, r.cfg.MappersPerNode, per)
		}
		name := "/engine/" + job.title()
		if err := nn.WriteFile(name, data, ""); err != nil {
			return nil, err
		}
		numSplits := len(nodes) * r.cfg.MappersPerNode
		if blocks := (int64(len(data)) + r.cfg.BlockSize - 1) / r.cfg.BlockSize; int64(numSplits) > blocks {
			numSplits = int(blocks)
		}
		return workload.SplitsFromFile(nn, name, numSplits, r.cfg.BlockSize)
	}
}

// Run implements Runner.
func (r *simRunner) Run(job *Job) (*Result, error) {
	if err := r.cfg.validateJob(job); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Backend: r.Backend()}
	var data []byte
	if job.Kind != Pi {
		// Resolve the dataset once: the functional pass and the
		// modelled DFS layout must see the same bytes, and a Source
		// can only be read once.
		var err error
		if data, err = r.functionalInput(job); err != nil {
			return nil, err
		}
		if job.Sink != nil && len(data) == 0 {
			// A paper-scale synthetic size runs timing-only here; a
			// Sink promises output bytes the model never computes.
			// Refusing beats silently streaming nothing while the
			// functional backends stream the real result.
			return nil, fmt.Errorf("%w: sim models a %d-byte %s dataset without materializing it and cannot stream output to a Sink (functional cap: %d bytes)",
				ErrUnsupported, job.InputBytes, job.Kind, maxFunctionalSyntheticBytes)
		}
	}
	if err := r.functional(job, data, res); err != nil {
		return nil, err
	}
	mapperFor, err := r.mapperFor(job.Kind)
	if err != nil {
		return nil, err
	}
	cfg := hadoop.DefaultConfig()
	cfg.MapSlots = r.cfg.MappersPerNode
	cfg.Speculative = r.cfg.Speculative
	cfg.MaxAttempts = r.cfg.MaxAttempts
	run, err := experiments.RunDistributed(r.cfg.Workers, cfg, r.buildSplits(job, data), mapperFor,
		r.hardware()...)
	if err != nil {
		return nil, err
	}
	jr := run.Result
	res.Sim = &SimStats{
		MakespanSeconds:      jr.Duration().Seconds(),
		SetupAdjustedSeconds: (jr.Finished - jr.Started).Seconds(),
		Tasks:                len(jr.Tasks),
		Attempts:             jr.Attempts,
		LocalReads:           jr.LocalReads,
		RemoteReads:          jr.RemoteReads,
		InputBytes:           jr.InputBytes,
		EnergyJoules:         jr.EnergyJoules,
		SlotUtilization:      hadoop.SlotUtilization(jr, r.cfg.Workers, r.cfg.MappersPerNode),
		run:                  jr,
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
