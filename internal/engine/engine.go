// Package engine is the backend-agnostic MapReduce layer: one Job
// description, one Runner interface, one named-backend registry. The
// registry holds the paper's three cluster runtimes — the live
// in-process two-level cluster (internal/core), the calibrated
// discrete-event simulation (internal/hadoop on internal/sim) and the
// socket-backed distributed system (internal/netmr) — and each runs
// every job Kind. Every example, command and benchmark selects among
// them through this package instead of hand-wiring a call path per
// backend, and a shared conformance suite holds all backends to
// identical results for the same job. The node-level Cell framework
// (internal/cellmr) is a library that Figure 2 and cmd/cellbench call.
//
// Two call shapes exist. RunOnce (and Runner.Run) is the one-shot
// path: boot a backend, run one job, tear it down. Client is the
// service path: Open once, Submit many concurrent jobs — each tagged
// with Job.Tenant and returning a JobHandle for Wait/Kill/Status —
// then Close. On the net backend both shapes ride the same
// multi-tenant job service (internal/netmr); other backends emulate
// Submit by serializing jobs and refuse Kill/Status with
// ErrUnsupported rather than pretending.
package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"hetmr/internal/hadoop"
	"hetmr/internal/kernels"
)

// Kind names a built-in job shape. The set mirrors the paper's
// workloads: word count (the classic model demo), TeraSort (§IV-A),
// Monte Carlo Pi (§IV-B) and AES encryption (§IV-A).
type Kind string

// Built-in job kinds.
const (
	Wordcount Kind = "wordcount"
	Sort      Kind = "sort"
	Pi        Kind = "pi"
	Encrypt   Kind = "encrypt"
)

// DefaultSeed is the seed a job with Seed 0 runs with.
const DefaultSeed = kernels.DefaultSeed

// Job is a backend-agnostic MapReduce job. Data kinds (Wordcount,
// Sort, Encrypt) consume Input; Pi consumes Samples split over Tasks
// canonical map tasks.
type Job struct {
	// Name labels the job in errors and DFS paths; defaults to the
	// kind.
	Name string
	// Kind selects the built-in job shape.
	Kind Kind
	// Input is the dataset for data kinds. Backends split it into
	// blocks of the runner's configured block size, so block-boundary
	// semantics (e.g. words straddling blocks) agree across backends.
	// It is the materialized convenience over Source: a job may set
	// either, not both (Input wins when both are set).
	Input []byte
	// Source streams the dataset for data kinds when Input is nil:
	// the functional backends consume it incrementally — block by
	// block into the DFS — so a job's input never has to fit in
	// memory. A Source is read exactly once; a job carrying one can
	// be Run once. The simulated backend materializes it (its duty is
	// the timing model, not bounded memory).
	Source io.Reader
	// InputBytes requests a synthetic dataset of this size when Input
	// and Source are nil: functional backends stream a deterministic
	// generator (SyntheticReader) incrementally, the simulated
	// backend models the size (materializing only small datasets for
	// its functional result). Used for sweeps far above RAM scale.
	InputBytes int64
	// Sink, when set on a byte-output kind (Sort, Encrypt), receives
	// the job's output as a stream instead of Result.Bytes: the live
	// backend merges or copies its committed runs into it, the net
	// backend pulls streamed result pieces from the worker trackers.
	// Result.Bytes stays nil and Result.OutputBytes counts what was
	// written. A Sink error fails the job.
	Sink io.Writer
	// Key and IV parameterize Encrypt (AES-128/CTR). Key must be 16
	// bytes; a nil IV selects a zero IV.
	Key, IV []byte
	// Samples is the total Monte Carlo sample count for Pi.
	Samples int64
	// Tasks is the Pi map-task count (0: two per worker, the paper's
	// slot count).
	Tasks int
	// Seed is the Pi base seed — task i draws from the domain
	// MixSeed(Seed, i) — and a net Sort's key-sampler seed. 0 selects
	// DefaultSeed.
	Seed uint64
	// Tenant names the submitting tenant on the multi-tenant net
	// backend ("" selects the default tenant): jobs compete for
	// trackers under the tenant's fair-share weight and quotas
	// (Config.Quotas). Backends that run one job at a time have no
	// scheduling contention to arbitrate and accept any tenant label.
	Tenant string
}

// Validate checks the job is well-formed independent of backend.
func (j *Job) Validate() error {
	switch j.Kind {
	case Wordcount, Sort, Encrypt:
		if len(j.Input) == 0 && j.Source == nil && j.InputBytes <= 0 {
			return fmt.Errorf("engine: %s job needs Input, Source or InputBytes", j.Kind)
		}
		if j.Kind == Encrypt {
			if j.Key == nil {
				return fmt.Errorf("engine: encrypt job needs a 16-byte Key")
			}
			if _, err := kernels.NewCipher(j.Key); err != nil {
				return fmt.Errorf("engine: encrypt job: %w", err)
			}
		}
	case Pi:
		if j.Samples <= 0 {
			return fmt.Errorf("engine: pi job needs positive Samples, got %d", j.Samples)
		}
		if j.Tasks < 0 {
			return fmt.Errorf("engine: pi job has negative Tasks")
		}
	default:
		return fmt.Errorf("engine: unknown job kind %q", j.Kind)
	}
	return nil
}

// title returns the job's display name.
func (j *Job) title() string {
	if j.Name != "" {
		return j.Name
	}
	return string(j.Kind)
}

// iv returns the job's IV, defaulting to a zero IV.
func (j *Job) iv() []byte {
	if j.IV != nil {
		return j.IV
	}
	return make([]byte, 16)
}

// KV is one reduced key/value pair.
type KV struct {
	Key   string
	Value string
}

// SimStats carries the simulated backend's modelled runtime metrics —
// the quantities the paper's figures are built from.
type SimStats struct {
	// MakespanSeconds is the modelled job duration as the user sees
	// it; SetupAdjustedSeconds excludes job setup/cleanup.
	MakespanSeconds      float64
	SetupAdjustedSeconds float64
	// Tasks counts completed task reports, Attempts every launched
	// attempt (incl. speculative and re-run).
	Tasks    int
	Attempts int
	// LocalReads/RemoteReads count record fetches by locality.
	LocalReads  int64
	RemoteReads int64
	// InputBytes is the modelled input volume.
	InputBytes int64
	// EnergyJoules is the modelled cluster energy over the job span.
	EnergyJoules float64
	// SlotUtilization is the busy fraction of map-slot time.
	SlotUtilization float64
	// run is the simulated JobTracker's task log Timeline renders.
	run *hadoop.JobResult
}

// Timeline renders the job's task attempts as a text Gantt chart
// width columns wide: one header line, then one row per attempt.
func (s *SimStats) Timeline(width int) string {
	return hadoop.RenderTimeline(s.run, width)
}

// Result is a finished job. Which fields are set depends on the kind:
// Pairs for Wordcount, Bytes for Sort and Encrypt, Pi/Inside/Total for
// Pi. Sim is set by the simulated backend only.
type Result struct {
	Backend string
	Elapsed time.Duration

	Pairs []KV   // Wordcount: sorted by key
	Bytes []byte // Sort: merged sorted records; Encrypt: ciphertext (nil when Job.Sink streamed it)

	// OutputBytes counts the bytes streamed to Job.Sink (0 when the
	// job materialized Bytes instead).
	OutputBytes int64

	Pi     float64 // Pi estimate
	Inside int64   // samples inside the quarter circle
	Total  int64   // samples drawn

	// TaskCounts reports winning task attempts per worker on the
	// dynamically scheduled backends (live and net) — the per-worker
	// imbalance a heterogeneous cluster produces. Nil elsewhere.
	TaskCounts map[string]int

	// Devices maps worker ID to its device kind ("cell" or "host") on
	// the net backend — read alongside TaskCounts, it shows how
	// completions skew toward accelerated nodes. Nil elsewhere.
	Devices map[string]string

	// LocalReads/RemoteReads count DFS block fetches over the job's
	// span on the net backend: served by the tracker's co-located
	// DataNode, or by another one. Cluster-wide counter deltas —
	// concurrent jobs' fetches land in whichever result collects first.
	// Zero elsewhere (the sim backend's modelled locality lives in Sim).
	LocalReads  int64
	RemoteReads int64
	// RackReads is always 0: the cluster is one flat rack, as the
	// paper's testbed was. The field survives only because the frozen
	// benchmark module (bench/run.go) sums it into its read count; it
	// goes when bench/ is next edited (ROADMAP item 1(b)).
	RackReads int64

	Sim *SimStats
}

// Runner executes engine jobs on one backend. Runners are not
// goroutine-safe unless documented; Close releases cluster resources.
type Runner interface {
	// Backend reports the registered backend name.
	Backend() string
	// Run executes one job. A job the backend's configuration cannot
	// honour returns an error wrapping ErrUnsupported.
	Run(job *Job) (*Result, error)
	// Close tears the backend's cluster down.
	Close() error
}

// seed resolves the job's seed.
func (j *Job) seed() uint64 { return cmp.Or(j.Seed, DefaultSeed) }

// piTasks expands a Pi job on a cluster of workers into the canonical
// task list (kernels.SplitSamples — the single copy of the
// decomposition every backend executes, which is what makes Pi results
// bit-identical across runners).
func (j *Job) piTasks(workers int) []kernels.SampleSplit {
	return kernels.SplitSamples(j.Samples, normalizeTasks(j.Tasks, workers), j.seed())
}

// normalizeTasks resolves a Pi job's task count against the worker
// count: the paper runs two map slots per node.
func normalizeTasks(tasks, workers int) int {
	if tasks > 0 {
		return tasks
	}
	n := workers * 2
	if n < 1 {
		n = 1
	}
	return n
}

// pairsFromRun turns a word run (kernels.EachWordRun), every backend's
// word-count result, into Pairs in its order: one pass sizes them, the
// next slices every key and decimal count from one backing string.
func pairsFromRun(run []byte) ([]KV, error) {
	var digits [20]byte
	words, size := 0, 0
	if err := kernels.EachWordRun(run, func(w []byte, n int64) {
		words, size = words+1, size+len(w)+len(strconv.AppendInt(digits[:0], n, 10))
	}); err != nil {
		return nil, err
	}
	pairs, b := make([]KV, 0, words), strings.Builder{}
	b.Grow(size)
	err := kernels.EachWordRun(run, func(w []byte, n int64) {
		at := b.Len()
		b.Write(w)
		b.Write(strconv.AppendInt(digits[:0], n, 10))
		s := b.String() // a Builder only appends: its earlier strings stay valid
		pairs = append(pairs, KV{Key: s[at : at+len(w)], Value: s[at+len(w):]})
	})
	return pairs, err
}

// SyntheticReader streams the deterministic pattern dataset used when
// a job names a size instead of bytes — the same bytes every backend
// generates for a given n, produced incrementally so a 100 GB
// synthetic job costs O(buffer) memory to feed.
func SyntheticReader(n int64) io.Reader {
	return &syntheticReader{remaining: n}
}

type syntheticReader struct {
	off       int64
	remaining int64
}

// Read implements io.Reader with the generator pattern
// byte(i*131 + i>>10) at absolute offset i.
func (r *syntheticReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remaining {
		n = int(r.remaining)
	}
	for i := 0; i < n; i++ {
		j := r.off + int64(i)
		p[i] = byte(int(j)*131 + int(j)>>10)
	}
	r.off += int64(n)
	r.remaining -= int64(n)
	return n, nil
}

// syntheticInput materializes the generator's output (small sizes
// only; streaming callers use SyntheticReader directly).
func syntheticInput(n int64) []byte {
	data, _ := io.ReadAll(SyntheticReader(n))
	return data
}

// inputReader returns the job's data stream: Source, else Input, else
// the synthetic generator. Call at most once per Run — a Source is
// consumed by reading.
func (j *Job) inputReader() io.Reader {
	if len(j.Input) > 0 {
		return bytes.NewReader(j.Input)
	}
	if j.Source != nil {
		return j.Source
	}
	return SyntheticReader(j.InputBytes)
}

// output returns where a byte-output job (Sort, Encrypt) writes its
// result, and the finish that records it on the Result once written:
// the job's Sink behind a byte counter (Result.OutputBytes), or a
// buffer that becomes Result.Bytes. It is the one delivery path every
// backend writes through.
func (j *Job) output() (io.Writer, func(*Result)) {
	if j.Sink != nil {
		cw := &countingWriter{w: j.Sink}
		return cw, func(res *Result) { res.OutputBytes = cw.n }
	}
	buf := new(bytes.Buffer)
	return buf, func(res *Result) { res.Bytes = buf.Bytes() }
}

// writeOutput delivers a byte-output result a backend computed whole
// through the job's output.
func (j *Job) writeOutput(res *Result, out []byte) error {
	w, finish := j.output()
	if _, err := w.Write(out); err != nil {
		return err
	}
	finish(res)
	return nil
}

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
