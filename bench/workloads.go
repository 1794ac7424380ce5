package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hetmr/internal/core"
	"hetmr/internal/engine"
	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
)

const mb = 1 << 20

// Fixed set-up shared by every workload: one process, default GOGC and
// GOMAXPROCS, four workers with two map slots each, closed-loop
// clients, every store in memory. Sizes are chosen so that one bulk
// job takes 0.2 to 0.6 s on the two-core reference box: a run then
// times twenty-five or more jobs, and a cluster holds at most a few
// hundred MB at a time. Larger footprints made runs less repeatable,
// not more (fresh memory is the expensive kind on a small VM).
//
// No workload sets a spill watermark. The checkout's disk (ext4 on a
// virtual block device) made the run-to-run spread of every spilling
// workload 15 to 27 %, against 2 to 4 % for the same job on tmpfs or
// in memory, and a benchmark may write only inside its checkout. The
// spill store's disk path is measured by the spill.* and hdfs.* probes
// instead, which have no bound.
const (
	workers        = 4
	smallTextBytes = 64_000 // one block at the default block size
	piSamples      = 1_000_000
	// piTasks is four full waves over the eight slots. Eight tasks
	// straddle a heartbeat edge and make the median flip between two
	// values from run to run.
	piTasks = 32
	// bulkJobsPerCluster bounds how much staged input a net cluster
	// accumulates before it is replaced (see env.loop).
	bulkJobsPerCluster = 3
)

// workload is one of the six job mixes. bulk is the data job it
// repeats (nil for smalljobs-net); small marks the workloads that run
// the 64 KB wordcount, alone with Pi (smalljobs-net) or beside the
// bulk tenant (mixed-net).
type workload struct {
	name, why      string
	backend        string
	cfg            engine.Config
	bulk           *bulkSpec
	small          bool
	warmups        int
	jobsPerCluster int // 0: one cluster serves the whole run
}

type bulkSpec struct {
	kind engine.Kind
	size int64
}

// sortConfig is shared by the three terasort workloads: eight 4 MB
// blocks are one full wave over the eight map slots, and the eight
// range partitions one wave of reduce tasks.
var sortConfig = engine.Config{Workers: workers, BlockSize: 4_000_000, Reducers: 8, RangePartition: true}

const sortBytes = 32_000_000

var workloads = []*workload{
	{
		name:    "terasort-net",
		why:     "every data-plane layer does real work: DFS put over rpcnet, sort kernel, shuffle store, windowed chunked fetch, k-way merge, streamed output",
		backend: "net", cfg: sortConfig, warmups: 1, jobsPerCluster: bulkJobsPerCluster,
		bulk: &bulkSpec{kind: engine.Sort, size: sortBytes},
	},
	{
		name:    "terasort-live",
		why:     "same bytes, kernels and scheduler with no rpcnet and no netmr: a wire change must not move it, a kernel change must move both terasorts",
		backend: "live", cfg: sortConfig, warmups: 1,
		bulk: &bulkSpec{kind: engine.Sort, size: sortBytes},
	},
	{
		name:    "encrypt-net",
		why:     "the kernel is nearly free and there is no shuffle, so time is DFS put/get, rpcnet frames and output streaming: bypasses sort, merge and shuffle",
		backend: "net", warmups: 1, jobsPerCluster: bulkJobsPerCluster,
		cfg:  engine.Config{Workers: workers, BlockSize: 1 << 20},
		bulk: &bulkSpec{kind: engine.Encrypt, size: 32 * mb},
	},
	{
		name:    "wordcount-net",
		why:     "kernel-bound: the shuffle is a few KB of combined pairs and the result rides the heartbeat, the opposite use of the shuffle path from terasort",
		backend: "net", warmups: 1, jobsPerCluster: bulkJobsPerCluster,
		cfg:  engine.Config{Workers: workers, BlockSize: 1 << 20, Reducers: 4},
		bulk: &bulkSpec{kind: engine.Wordcount, size: 32 * mb},
	},
	{
		name:    "smalljobs-net",
		why:     "moves almost no bytes: latency is the control-plane floor of heartbeats, grant waves and Wait polling, where a bulk-path change must show nothing",
		backend: "net", small: true, warmups: 5,
		cfg: engine.Config{Workers: workers, Mapper: "java"},
	},
	{
		name:    "mixed-net",
		why:     "a bulk and an interactive tenant share the rpcnet pool, JobTracker lock, fair-share grants and slots: throughput bought with latency shows only here",
		backend: "net", small: true, warmups: 1, jobsPerCluster: bulkJobsPerCluster,
		cfg: func() engine.Config {
			c := sortConfig
			c.Quotas = map[string]engine.Quota{"bulk": {Weight: 1}, "interactive": {Weight: 1}}
			return c
		}(),
		bulk: &bulkSpec{kind: engine.Sort, size: sortBytes},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobDef is one runnable, checkable job: a data job over a generated
// file with its reference, or a Pi job with its reference count.
type jobDef struct {
	name   string
	kind   engine.Kind
	tenant string

	path      string
	size      int64
	blockSize int64
	sortRef   sortRef
	cipherRef cipherRef
	wordRef   map[string]int64

	samples int64
	tasks   int
	inside  int64
}

// newDataJob generates the dataset of a data job and its reference.
func newDataJob(dir, name string, kind engine.Kind, seed uint64, size, blockSize int64) (*jobDef, error) {
	d := &jobDef{name: name, kind: kind, size: size, blockSize: blockSize,
		path: filepath.Join(dir, name+".in")}
	var err error
	switch kind {
	case engine.Sort:
		d.sortRef, err = genRecords(d.path, seed, size)
	case engine.Encrypt:
		d.cipherRef, err = genPlaintext(d.path, seed, size)
	case engine.Wordcount:
		d.wordRef, err = genText(d.path, seed, size, blockSize)
	default:
		err = fmt.Errorf("no generator for %s", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	return d, nil
}

// newPiJob builds the Pi job and its reference: the kernel summed over
// the canonical task split. Job.Seed stays zero, so the engine's
// default seed applies and the program sees nothing of -seed.
func newPiJob(samples int64, tasks int) *jobDef {
	d := &jobDef{name: "pi", kind: engine.Pi, samples: samples, tasks: tasks}
	for _, t := range kernels.SplitSamples(samples, tasks, engine.DefaultSeed) {
		d.inside += kernels.CountInside(t.Seed, t.Samples)
	}
	return d
}

// jobTimes are the instants the benchmark can observe from outside one
// job. The end-to-end pass uses start and end only.
type jobTimes struct {
	start     time.Time // Submit called
	submitted time.Time // Submit returned
	eof       time.Time // Source fully read
	mapsDone  time.Time // every map task completed
	done      time.Time // job reached its terminal state
	firstOut  time.Time // first byte written to the Sink
	end       time.Time // Wait returned, output complete
}

func (t jobTimes) wall() time.Duration { return t.end.Sub(t.start) }

// stampReader notes when the wrapped reader reports EOF.
type stampReader struct {
	r   io.Reader
	eof *time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF && s.eof.IsZero() {
		*s.eof = time.Now()
	}
	return n, err
}

// stampWriter notes when the first byte arrives.
type stampWriter struct {
	w     io.Writer
	first *time.Time
}

func (s *stampWriter) Write(p []byte) (int, error) {
	if s.first.IsZero() {
		*s.first = time.Now()
	}
	return s.w.Write(p)
}

// run submits the job, waits for it and verifies its output. A job's
// time runs from the Submit call (ingest included — Result.Elapsed
// starts after staging on the net backend, so it is not used) to Wait
// returning with the output fully in the Sink. With poll set, a
// status poller also stamps the stage boundaries.
func (d *jobDef) run(c *engine.Client, poll bool) (jobTimes, *engine.Result, error) {
	var t jobTimes
	job := &engine.Job{Name: d.name, Kind: d.kind, Tenant: d.tenant}
	var check func(*engine.Result) error
	if d.kind == engine.Pi {
		job.Samples, job.Tasks = d.samples, d.tasks
		check = func(res *engine.Result) error { return checkPi(res, d.inside, d.samples) }
	} else {
		f, err := os.Open(d.path)
		if err != nil {
			return t, nil, err
		}
		defer f.Close()
		job.Source = &stampReader{r: f, eof: &t.eof}
		switch d.kind {
		case engine.Sort:
			sink := &sortSink{}
			job.Sink = &stampWriter{w: sink, first: &t.firstOut}
			check = func(*engine.Result) error { return sink.check(d.sortRef) }
		case engine.Encrypt:
			sink := &cipherSink{}
			job.Key = benchKey
			job.Sink = &stampWriter{w: sink, first: &t.firstOut}
			check = func(*engine.Result) error { return sink.check(d.cipherRef) }
		case engine.Wordcount:
			check = func(res *engine.Result) error { return checkCounts(res.Pairs, d.wordRef) }
		}
	}

	t.start = time.Now()
	h, err := c.Submit(job)
	t.submitted = time.Now()
	if err != nil {
		return t, nil, fmt.Errorf("%s: submit: %w", d.name, err)
	}
	var stopPoll func()
	if poll {
		stopPoll = d.pollStages(c, h, &t)
	}
	res, err := h.Wait()
	t.end = time.Now()
	if stopPoll != nil {
		stopPoll()
	}
	if err != nil {
		return t, nil, fmt.Errorf("%s: %w", d.name, err)
	}
	if err := check(res); err != nil {
		return t, res, fmt.Errorf("%s: wrong output: %w", d.name, err)
	}
	return t, res, nil
}

// pollEvery is the stage poller's period: fine against stages of
// 100 ms and more, and two orders of magnitude above a Status call.
const pollEvery = 2 * time.Millisecond

// pollStages stamps t.mapsDone and t.done from outside the job. On the
// net backend it polls JobHandle.Status until Completed covers the map
// tasks and until Done. The live backend has no Status; there the
// sort's output file appearing in the DFS marks the end of the map
// phase. The returned function stops the poller and fills boundaries
// it did not see from their neighbours.
func (d *jobDef) pollStages(c *engine.Client, h *engine.JobHandle, t *jobTimes) func() {
	maps := int((d.size + d.blockSize - 1) / d.blockSize)
	if d.kind == engine.Pi {
		maps = d.tasks
	}
	var live *core.LiveCluster
	if lr, ok := c.Runner().(interface{ Cluster() *core.LiveCluster }); ok {
		live = lr.Cluster()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if live != nil {
				for _, f := range live.FS.List() {
					if strings.HasSuffix(f, ".sorted") {
						t.mapsDone = time.Now()
						return
					}
				}
				continue
			}
			st, err := h.Status()
			if err != nil {
				return
			}
			if t.mapsDone.IsZero() && st.Completed >= maps {
				t.mapsDone = time.Now()
			}
			if st.Done {
				t.done = time.Now()
				return
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		if t.done.IsZero() {
			t.done = t.firstOut // live: the job is done when output starts
			if t.done.IsZero() {
				t.done = t.end
			}
		}
		if t.mapsDone.IsZero() || t.mapsDone.After(t.done) {
			t.mapsDone = t.done
		}
	}
}

// stageBounds cuts a traced job into its four stages. Ingest ends when
// both the Submit call has returned (net: staging happens inside it)
// and the Source is drained (live: Submit returns at once and staging
// happens behind it).
func (t jobTimes) stageBounds() [5]time.Time {
	ingested := t.submitted
	if t.eof.After(ingested) {
		ingested = t.eof
	}
	b := [5]time.Time{t.start, ingested, t.mapsDone, t.done, t.end}
	for i := 1; i < len(b); i++ {
		if b[i].Before(b[i-1]) {
			b[i] = b[i-1]
		}
	}
	return b
}

// env is one opened workload: generated datasets, their jobs and the
// warm cluster.
type env struct {
	w      *workload
	cfg    engine.Config
	quick  bool
	client *engine.Client
	bulk   *jobDef // nil for smalljobs-net
	small  *jobDef // the 64 KB wordcount, nil for bulk workloads
	pi     *jobDef // smalljobs-net only

	attempted, failed int
	firstErr          error
	mu                sync.Mutex // guards the three above in mixed-net
}

// note counts one finished job.
func (e *env) note(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.firstErr == nil {
			e.firstErr = err
		}
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
}

// scaled shrinks sizes for -quick, keeping whole records.
func scaled(size int64, quick bool) int64 {
	if !quick {
		return size
	}
	return size / 50 / recordSize * recordSize
}

// openWorkload is one set-up round: generate the datasets and their
// references, open the cluster and run the warm-up jobs. The caller
// closes env.client.
func openWorkload(w *workload, dir string, seed uint64, quick bool, tr *tracer) (*env, error) {
	e := &env{w: w}
	cfg := w.cfg
	cfg.SpillDir = dir
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = 64_000
	}
	var err error
	if w.bulk != nil {
		e.bulk, err = newDataJob(dir, w.name, w.bulk.kind, seed, scaled(w.bulk.size, quick), blockSize)
		if err != nil {
			return nil, err
		}
	}
	if w.small {
		size := int64(smallTextBytes)
		e.small, err = newDataJob(dir, "small-wordcount", engine.Wordcount, seed+1, size, size)
		if err != nil {
			return nil, err
		}
		e.small.blockSize = blockSize
		if w.bulk == nil {
			e.pi = newPiJob(piSamples, piTasks)
		} else {
			e.bulk.tenant, e.small.tenant = "bulk", "interactive"
		}
	}
	e.cfg, e.quick = cfg, quick
	return e, e.open(tr, true)
}

// open starts the cluster and, with warm set, runs the warm-up jobs.
func (e *env) open(tr *tracer, warm bool) error {
	var err error
	tr.timed("engine.open", func() { e.client, err = engine.Open(e.w.backend, e.cfg) })
	if err != nil {
		return fmt.Errorf("open %s: %w", e.w.backend, err)
	}
	warmups := e.w.warmups
	if e.quick {
		warmups = 1
	}
	if !warm {
		warmups = 0
	}
	for i := 0; i < warmups; i++ {
		for _, d := range []*jobDef{e.bulk, e.small, e.pi} {
			if d != nil {
				_, _, err := d.run(e.client, false)
				e.note(err)
			}
		}
	}
	return nil
}

// netCluster returns the net backend's cluster, or nil on live.
func netCluster(c *engine.Client) *netmr.Cluster {
	if nr, ok := c.Runner().(interface{ Cluster() *netmr.Cluster }); ok {
		return nr.Cluster()
	}
	return nil
}

// iteration is one closed-loop step of a workload and what it
// measured.
type iteration struct {
	wall   time.Duration // the bulk job, or the wordcount+Pi pair
	small  time.Duration // the 64 KB wordcount, where there is one
	pi     time.Duration // the Pi job, smalljobs-net only
	input  int64         // bytes of input the step consumed
	times  jobTimes      // of the step's traced job
	res    *engine.Result
	traced bool

	heapPeak uint64  // peak live heap during the step
	alloc    uint64  // bytes allocated during the step
	cpu      float64 // process CPU seconds during the step
}

// step runs one iteration of a bulk or smalljobs workload.
func (e *env) step(poll bool) iteration {
	var it iteration
	it.traced = poll
	if e.bulk != nil {
		t, res, err := e.bulk.run(e.client, poll)
		e.note(err)
		it.wall, it.input, it.times, it.res = t.wall(), e.bulk.size, t, res
		return it
	}
	t, res, err := e.small.run(e.client, poll)
	e.note(err)
	it.small, it.times, it.res = t.wall(), t, res
	pt, _, err := e.pi.run(e.client, false)
	e.note(err)
	it.pi = pt.wall()
	it.wall, it.input = pt.end.Sub(t.start), e.small.size
	return it
}

// interactive runs mixed-net's second tenant: the 64 KB wordcount back
// to back on its own goroutine until stopped.
type interactive struct {
	stop  chan struct{}
	done  chan struct{}
	walls []time.Duration
}

func (e *env) startInteractive() *interactive {
	in := &interactive{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(in.done)
		for {
			select {
			case <-in.stop:
				return
			default:
			}
			t, _, err := e.small.run(e.client, false)
			e.note(err)
			in.walls = append(in.walls, t.wall())
		}
	}()
	return in
}

// halt stops the tenant after its job in flight and returns its
// latencies.
func (in *interactive) halt() []time.Duration {
	close(in.stop)
	<-in.done
	return in.walls
}

// loop runs closed-loop iterations, one client goroutine, until their
// job time adds up to the time box (and at least minIters). In
// mixed-net the loop is the bulk tenant and the interactive tenant
// runs beside it. pollEach decides per iteration whether the stage
// poller runs.
//
// The net backend never frees a finished job's staged input, so a
// cluster that keeps serving bulk jobs grows without bound, and how
// far it has grown would decide what a job costs. Every
// w.jobsPerCluster iterations the cluster is therefore replaced by a
// fresh one; the replacement is not part of the timed section.
func (e *env) loop(box time.Duration, minIters int, heap *heapSampler, pollEach func(i int) bool) (iters []iteration, small []time.Duration, err error) {
	mixed := e.bulk != nil && e.small != nil
	var in *interactive
	halt := func() {
		if in != nil {
			small = append(small, in.halt()...)
			in = nil
		}
	}
	defer halt()
	var spent time.Duration
	for i := 0; i < minIters || spent < box; i++ {
		if per := e.w.jobsPerCluster; per > 0 && i > 0 && i%per == 0 {
			halt()
			if err := e.client.Close(); err != nil {
				return nil, nil, err
			}
			if err := e.open(nil, false); err != nil {
				return nil, nil, err
			}
		}
		if mixed && in == nil {
			in = e.startInteractive()
		}
		heap.take()
		alloc0, cpu0 := allocBytes(), cpuSeconds()
		it := e.step(pollEach(i))
		it.alloc, it.cpu = allocBytes()-alloc0, cpuSeconds()-cpu0
		it.heapPeak = heap.take()
		spent += it.wall
		iters = append(iters, it)
	}
	halt()
	return iters, small, nil
}
