// Command bench is hetmr's end-to-end and per-layer benchmark: six
// workloads on warm clusters, every output verified against a
// reference, end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass. See README.md in this directory.
//
//	bash bench/run.sh                       # all workloads, both passes
//	bash bench/run.sh -workload encrypt-net -trace 0 -seed 7 -seconds 12
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricSpec is one row of BENCHMARK.json's metric lists. The test
// suite holds the tables below and BENCHMARK.json to each other.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, each defined on
// every workload, with the share of the parent's median by which it
// may worsen before a change counts as a regression.
var endToEnd = []metricSpec{
	{"job_mb_per_s", "MB/s", "higher", 0.25},
	{"job_latency_ms_iqm", "ms", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.20},
	{"alloc_per_input_byte", "B/B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// resultFile is what -out/result.json holds: every run made by one
// invocation, enough context to compare two files honestly.
type resultFile struct {
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"nproc"`
	Seconds   float64      `json:"seconds"`
	Quick     bool         `json:"quick"`
	Runs      []*runResult `json:"runs"`
}

// traceFile is -out/trace.json: the spans of every traced run.
type traceFile struct {
	Runs []traceRun `json:"runs"`
}

type traceRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all six)")
		seed    = flag.Uint64("seed", 2009, "seed of the input generators")
		secs    = flag.Float64("seconds", 12, "length of a run's timed section")
		trace   = flag.String("trace", "", "0: end-to-end pass only, 1: traced pass only (default: both)")
		quick   = flag.Bool("quick", false, "sizes / 50 and minimum job counts: a smoke run, not a measurement")
		out     = flag.String("out", "", "directory for result.json, trace.json and scratch files (default bench/out)")
		runs    = flag.Int("runs", 1, "repeat each run this many times with seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two result.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	var passes []bool // traced?
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace wants 0 or 1, got %q\n", *trace)
		return 2
	}
	if *out == "" {
		*out = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			*out = filepath.Join("bench", "out")
		}
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	file := resultFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: *secs, Quick: *quick}
	var traces traceFile
	var last *runResult
	failed := 0
	for _, w := range selected {
		for _, traced := range passes {
			for r := 0; r < *runs; r++ {
				res, err := runOnce(w, traced, runOptions{
					seed: *seed + uint64(r), seconds: *secs, quick: *quick, log: os.Stdout,
				}, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printMetrics(res)
				file.Runs = append(file.Runs, res)
				if traced {
					traces.Runs = append(traces.Runs, traceRun{w.name, res.Seed, res.Spans})
				}
				failed += res.Failed
				last = res
			}
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(traces.Runs) > 0 {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(file.Runs) == 1 {
		// The one-run form is what a driver calls: its last line of
		// output is the run as one JSON object.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{last.Failed == 0, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d jobs failed or produced wrong output\n", failed)
		return 1
	}
	return 0
}

// runOnce runs one workload in one pass inside a scratch directory of
// its own, removed afterwards.
func runOnce(w *workload, traced bool, o runOptions, outDir string) (*runResult, error) {
	dir, cleanup, err := scratchDir(outDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	o.dir = dir
	if traced {
		return runTraced(w, o)
	}
	return runEndToEnd(w, o)
}

// printMetrics prints every metric of a run by name, with its unit.
func printMetrics(r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %-32s %14.4f %s\n", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
