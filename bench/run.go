package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"hetmr/internal/metrics"
)

// runResult is one run of one workload in one pass.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Jobs      int               `json:"timed_jobs"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"-"`
}

// runOptions are what a run needs besides its workload.
type runOptions struct {
	seed    uint64
	seconds float64
	quick   bool
	dir     string // scratch directory for datasets and spill files
	log     io.Writer
}

func (o runOptions) box(share float64) time.Duration {
	if o.quick {
		return 0 // minimum iteration counts only
	}
	return time.Duration(share * o.seconds * float64(time.Second))
}

// setupRounds is how often the end-to-end pass sets the workload up:
// setup_s is the median round, so that one slow page-cache flush does
// not read as a set-up regression.
const setupRounds = 3

// runEndToEnd is the untraced pass: set up, run the closed loop for the
// time box, report every end-to-end metric.
func runEndToEnd(w *workload, o runOptions) (*runResult, error) {
	rounds := setupRounds
	if o.quick {
		rounds = 1
	}
	var e *env
	var setups []float64
	attempted, failed := 0, 0
	for r := 0; r < rounds; r++ {
		if e != nil {
			attempted, failed = attempted+e.attempted, failed+e.failed
			if err := e.client.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = openWorkload(w, o.dir, o.seed, o.quick, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.client.Close() }() // the loop may have replaced the client

	heap := startHeapSampler()
	defer heap.close()
	minIters := 3
	if o.quick {
		minIters = 1
	}
	iters, small, err := e.loop(o.box(1), minIters, heap, func(int) bool { return false })
	if err != nil {
		return nil, err
	}

	var walls, heaps []float64
	var alloc uint64
	input := int64(len(small)) * smallTextBytes
	for _, it := range iters {
		walls = append(walls, it.wall.Seconds())
		alloc += it.alloc
		input += it.input
		heaps = append(heaps, float64(it.heapPeak))
	}
	latency := latencySamples(iters, small)
	res := &runResult{
		Workload: w.name, Seed: o.seed, Jobs: len(iters),
		Attempted: attempted + e.attempted, Failed: failed + e.failed,
		Metrics: map[string]metric{
			"job_mb_per_s":         {float64(iters[0].input) / 1e6 / midMean(walls), "MB/s"},
			"job_latency_ms_iqm":   {midMean(latency), "ms"},
			"peak_heap_mb":         {midMean(heaps) / 1e6, "MB"},
			"alloc_per_input_byte": {float64(alloc) / float64(input), "B/B"},
			"setup_s":              {median(setups), "s"},
		},
	}
	fmt.Fprintf(o.log, "%s: %d timed iterations, %d latency samples, %d jobs verified, %d failed\n",
		w.name, len(iters), len(latency), res.Attempted, res.Failed)
	return res, checkFinite(res.Metrics)
}

// runTraced is the traced pass: alternate untraced and stage-polled
// jobs on one warm cluster, then run the layer probes. It reports
// every per-layer metric.
func runTraced(w *workload, o runOptions) (*runResult, error) {
	tr := newTracer()
	e, err := openWorkload(w, o.dir, o.seed, o.quick, tr)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			e.client.Close()
		}
	}()
	heap := startHeapSampler()
	defer heap.close()

	wire0, ctl0 := metrics.WireBytesRaw.Load(), metrics.DataPlaneBytes.Load()
	iters, interactive, err := e.loop(o.box(0.5), 2, heap, func(i int) bool { return i%2 == 1 })
	if err != nil {
		return nil, err
	}
	wire := metrics.WireBytesRaw.Load() - wire0
	control := metrics.DataPlaneBytes.Load() - ctl0

	m := make(map[string]metric)
	var plain, traced []float64
	stages := make([][]float64, 4)
	var compute, outRate []float64
	var local, reads int64
	var cpu float64
	input := int64(len(interactive)) * smallTextBytes
	jobs := len(interactive)
	for i, it := range iters {
		input += it.input
		cpu += it.cpu
		jobs++
		if it.pi > 0 {
			jobs++
		}
		job := it.times // the traced job of the step: the bulk job, or the small wordcount
		if !it.traced {
			plain = append(plain, job.wall().Seconds())
			continue
		}
		traced = append(traced, job.wall().Seconds())
		b := job.stageBounds()
		id := tr.add("job", 0, i+1, b[0], b[4])
		for s, name := range stageNames {
			tr.add(name, id, i+1, b[s], b[s+1])
			stages[s] = append(stages[s], b[s+1].Sub(b[s]).Seconds())
		}
		first := job.firstOut
		if first.IsZero() {
			first = job.end
		}
		read := job.eof
		if read.IsZero() { // Pi has no Source
			read = job.submitted
		}
		tr.add("engine.compute", id, i+1, read, first)
		compute = append(compute, first.Sub(read).Seconds())
		if it.res != nil {
			outRate = append(outRate, ratio(float64(it.res.OutputBytes)/1e6, b[4].Sub(b[3]).Seconds()))
			local += it.res.LocalReads
			reads += it.res.LocalReads + it.res.RackReads + it.res.RemoteReads
		}
	}
	latency := latencySamples(iters, interactive)
	for s, name := range stageNames {
		m[name+"_s"] = metric{median(stages[s]), "s"}
	}
	m["engine.compute_s"] = metric{median(compute), "s"}
	m["netmr.output_stream_mb_per_s"] = metric{median(outRate), "MB/s"}
	m["engine.cpu_s_per_gb"] = metric{cpu / (float64(input) / 1e9), "s/GB"}
	m["netmr.wire_per_input_byte"] = metric{float64(wire) / float64(input), "B/B"}
	m["netmr.control_bytes_per_job"] = metric{float64(control) / float64(jobs), "B"}
	m["netmr.local_read_ratio"] = metric{ratio(float64(local), float64(reads)), "ratio"}
	q, tail := tailQuantile(latency)
	m["netmr.job_latency_ms_tail"] = metric{tail, "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * (median(traced)/median(plain) - 1), "%"}

	attempts, tasks := 0, 0
	if clus := netCluster(e.client); clus != nil {
		list, err := clus.Client.ListJobs("")
		if err != nil {
			return nil, err
		}
		for _, j := range list {
			st, err := clus.Client.Status(j.ID)
			if err != nil {
				return nil, err
			}
			attempts, tasks = attempts+st.Attempts, tasks+st.Total
		}
	}
	m["netmr.attempts_per_task"] = metric{ratio(float64(attempts), float64(tasks)), "ratio"}

	closed = true
	tr.timed("engine.close", func() { err = e.client.Close() })
	if err != nil {
		return nil, err
	}
	total, _ := selfTimes(tr.spans)
	m["engine.open_s"] = metric{total["engine.open"], "s"}
	m["engine.close_s"] = metric{total["engine.close"], "s"}

	minN := 3
	if o.quick {
		minN = 1
	}
	probes, err := runProbes(tr, o.dir, o.seed, o.box(0.45)/probeCount, minN)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name] = v
	}

	fmt.Fprintf(o.log, "%s: %d plain and %d traced jobs, latency tail is p%.0f of %d samples\n",
		w.name, len(plain), len(traced), q*100, len(latency))
	printTimeTable(o.log, w.name, tr.spans)
	return &runResult{
		Workload: w.name, Seed: o.seed, Trace: true, Jobs: len(iters),
		Attempted: e.attempted, Failed: e.failed, Metrics: m, Spans: tr.spans,
	}, checkFinite(m)
}

// latencySamples are the Submit→Wait times, in ms, of the workload's
// latency job: the 64 KB wordcount where there is one (run by the loop
// on smalljobs-net, by the interactive tenant on mixed-net), else the
// bulk job itself.
func latencySamples(iters []iteration, interactive []time.Duration) []float64 {
	var out []float64
	for _, d := range interactive {
		out = append(out, ms(d))
	}
	for _, it := range iters {
		if it.small > 0 {
			out = append(out, ms(it.small))
		}
	}
	if len(out) == 0 {
		for _, it := range iters {
			out = append(out, ms(it.wall))
		}
	}
	return out
}

// probeCount is the number of prober.each calls in probes.go; the
// probe share of the time box is split evenly among them.
const probeCount = 26

// ratio is a/b, or 0 where there was nothing to count (the live
// backend has no DFS fetches and no task attempts to observe).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func checkFinite(m map[string]metric) error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

// scratchDir makes a fresh directory for one run's datasets under out
// and points TMPDIR at it, so that stores which fall back to the OS
// temp dir stay inside the checkout too. The returned function removes
// the directory and restores TMPDIR.
func scratchDir(out string) (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", nil, err
	}
	if dir, err = os.MkdirTemp(out, "tmp-"); err != nil {
		return "", nil, err
	}
	old, had := os.LookupEnv("TMPDIR")
	cleanup = func() {
		os.RemoveAll(dir)
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		cleanup()
		return "", nil, err
	}
	return dir, cleanup, nil
}
