// Command mrsim runs ad-hoc jobs on any registered MapReduce backend:
// pick a backend, a workload, a mapper variant and a cluster size, and
// get either the calibrated model's makespan and runtime statistics
// (backend sim) or a real execution's results (backends live and net).
//
//	mrsim -nodes 16 -workload enc -mapper cell -gb-per-mapper 1
//	mrsim -nodes 50 -workload pi -mapper java -samples 1e11
//	mrsim -nodes 32 -workload pi -mapper cell -samples 1e11 -accel-fraction 0.5 -speculative
//	mrsim -backend live -nodes 4 -workload wc -mb 4
//	mrsim -backend net -nodes 4 -workload pi -samples 1e7
//	mrsim -backend live -workload sort -input big.dat -output sorted.dat -spill-mem 33554432
//
// It can also run as a long-lived multi-tenant job service, or submit
// against one — the same job, staged, submitted and collected by the
// same engine path as -backend net, on somebody else's fleet:
//
//	mrsim -serve -nodes 4 -quotas alice=3,bob=1:2
//	mrsim -nn 127.0.0.1:40001 -jt 127.0.0.1:40003 -tenant alice -workload pi -samples 1e7
//	mrsim -nn 127.0.0.1:40001 -jt 127.0.0.1:40003 -workload sort -input big.dat -output sorted.dat
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"hetmr/internal/engine"
	"hetmr/internal/netmr"
)

func main() {
	backend := flag.String("backend", "sim", fmt.Sprintf("execution backend %v", engine.Backends()))
	nodes := flag.Int("nodes", 16, "worker node count")
	wl := flag.String("workload", "pi", "enc, pi, wc or sort")
	mapper := flag.String("mapper", "cell", "java, cell or empty (empty: sim only; remote submission honours it too)")
	gbPerMapper := flag.Float64("gb-per-mapper", 1, "modelled input GB per mapper (backend sim data workloads)")
	mb := flag.Float64("mb", 1, "materialized input MB (functional backends' data workloads)")
	samples := flag.Float64("samples", 1e11, "total samples (pi)")
	maps := flag.Int("maps", 0, "map task count (pi; default 2 per node)")
	accelFraction := flag.Float64("accel-fraction", 1.0, "fraction of nodes with accelerators")
	speculative := flag.Bool("speculative", false, "enable speculative execution (sim, live and net)")
	maxAttempts := flag.Int("max-attempts", 0, "per-task attempt cap, 0 = scheduler default (sim, live and net)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline, 0 = engine default (net)")
	timeline := flag.Bool("timeline", false, "print a task-attempt Gantt chart (sim only; other backends refuse it)")
	input := flag.String("input", "", "stream this file from disk through Job.Source instead of a synthetic dataset (data workloads; remote submission too)")
	output := flag.String("output", "", "stream the job's output to this file through Job.Sink (sort and enc; remote submission too)")
	spillMem := flag.Int64("spill-mem", 0, "data-plane spill watermark in bytes: 0 keeps everything in memory, -1 spills every payload (live and net)")
	serveMode := flag.Bool("serve", false, "run a long-lived multi-tenant job service instead of one job; print its addresses and block until interrupted")
	quotas := flag.String("quotas", "", "per-tenant quotas for -serve: tenant=weight[:maxJobs[:maxTrackers[:spillBytes[:maxQueued]]]],...")
	slots := flag.Int("slots", 2, "task slots per worker (-serve)")
	blockSize := flag.Int64("block-size", 64_000, "DFS block size in bytes (-serve and remote submission)")
	nn := flag.String("nn", "", "NameNode address of a running job service (remote submission and admin)")
	jt := flag.String("jt", "", "JobTracker address of a running job service (remote submission and admin)")
	tenant := flag.String("tenant", "", "tenant to submit as (Job.Tenant): against a running job service, or on -backend net")
	listNodes := flag.Bool("list-nodes", false, "admin: print a running service's tracker and datanode membership (-nn/-jt)")
	decommTracker := flag.String("decommission-tracker", "", "admin: drain the named TaskTracker on a running service (-jt)")
	decommDN := flag.String("decommission-dn", "", "admin: re-replicate and retire the DataNode at this address on a running service (-nn)")
	flag.Parse()

	accel := *accelFraction
	if accel == 0 {
		accel = engine.NoAcceleration
	}
	// Any negative flag value selects spill-everything, independent of
	// what numeric value engine.SpillAll happens to be.
	spill := *spillMem
	if spill < 0 {
		spill = engine.SpillAll
	}
	cfg := engine.Config{
		Workers:       *nodes,
		Mapper:        *mapper,
		AccelFraction: accel,
		Speculative:   *speculative,
		MaxAttempts:   *maxAttempts,
		JobTimeout:    *jobTimeout,
		SpillMemBytes: spill,
	}
	var err error
	switch {
	case *timeline && (*backend != "sim" || *serveMode || *nn != "" || *jt != ""):
		err = errors.New("-timeline needs -backend sim: it draws the simulated JobTracker's task log")
	case *serveMode:
		cfg.MappersPerNode, cfg.BlockSize = *slots, *blockSize
		err = serve(cfg, *quotas)
	case *listNodes || *decommTracker != "" || *decommDN != "":
		err = runAdmin(*nn, *jt, *blockSize, *listNodes, *decommTracker, *decommDN)
	default:
		// One job: on a backend booted for it, or — with -nn/-jt — on a
		// running service through an attached client. Everything after
		// the open is the same path.
		header := fmt.Sprintf("mapper=%s nodes=%d accel=%.0f%% speculative=%v",
			cfg.Mapper, cfg.Workers, max(accel, 0)*100, cfg.Speculative)
		open := func() (*engine.Client, error) { return engine.Open(*backend, cfg) }
		if *nn != "" || *jt != "" {
			*backend = "net"
			cfg.BlockSize = *blockSize
			header = fmt.Sprintf("mapper=%s jobtracker=%s tenant=%s", cfg.Mapper, *jt, cmp.Or(*tenant, netmr.DefaultTenant))
			open = func() (*engine.Client, error) { return engine.Dial(*nn, *jt, cfg) }
		}
		var job *engine.Job
		job, err = buildJob(*backend, *wl, cfg, *gbPerMapper, *mb, int64(*samples), *maps)
		if err == nil {
			job.Tenant = *tenant
			err = wireStreams(job, *input, *output, func(job *engine.Job) error {
				return run(open, header, job, *timeline)
			})
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrsim:", err)
		os.Exit(1)
	}
}

// wireStreams attaches the -input file as Job.Source and the -output
// file as Job.Sink (both streamed, never slurped), then runs the job
// and closes the files.
func wireStreams(job *engine.Job, input, output string, run func(*engine.Job) error) error {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		job.Source = f
		job.Input = nil
		job.InputBytes = 0
	}
	if output != "" {
		f, err := os.Create(output)
		if err != nil {
			return err
		}
		job.Sink = f
		if err := run(job); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return run(job)
}

// buildJob translates the CLI workload flags into an engine job.
func buildJob(backend, wl string, cfg engine.Config, gbPerMapper, mb float64,
	samples int64, maps int) (*engine.Job, error) {
	var kind engine.Kind
	switch wl {
	case "enc":
		kind = engine.Encrypt
	case "pi":
		kind = engine.Pi
	case "wc":
		kind = engine.Wordcount
	case "sort":
		kind = engine.Sort
	default:
		return nil, fmt.Errorf("unknown workload %q (enc|pi|wc|sort)", wl)
	}
	job := &engine.Job{Kind: kind}
	switch kind {
	case engine.Pi:
		job.Samples = samples
		job.Tasks = maps
	default:
		if backend == "sim" {
			// Modelled size: the paper's GB-scale working sets.
			job.InputBytes = int64(gbPerMapper * float64(int64(1)<<30) * float64(cfg.Workers*2))
		} else {
			// Real bytes on functional backends.
			job.InputBytes = int64(mb * float64(int64(1)<<20))
			if kind == engine.Sort {
				job.InputBytes -= job.InputBytes % 100 // whole records
			}
		}
		if kind == engine.Encrypt {
			job.Key = []byte("mrsim-aes-key-16")
		}
	}
	return job, nil
}

// run opens the client, runs the job on it and prints the result, with
// the sim backend's task Gantt chart when timeline is set.
func run(open func() (*engine.Client, error), header string, job *engine.Job, timeline bool) error {
	c, err := open()
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.Run(job)
	if err != nil {
		return err
	}
	fmt.Printf("backend=%s workload=%s %s\n", c.Backend(), job.Kind, header)
	if res.Sim != nil {
		s := res.Sim
		fmt.Printf("  makespan        %.2f s (setup-adjusted: %.2f s)\n",
			s.MakespanSeconds, s.SetupAdjustedSeconds)
		fmt.Printf("  tasks           %d completed reports, %d attempts launched\n",
			s.Tasks, s.Attempts)
		if s.InputBytes > 0 {
			fmt.Printf("  input           %.2f GB (%d local reads, %d remote)\n",
				float64(s.InputBytes)/(1<<30), s.LocalReads, s.RemoteReads)
		}
		fmt.Printf("  energy          %.1f kJ (%.4f kWh)\n",
			s.EnergyJoules/1e3, s.EnergyJoules/3.6e6)
		fmt.Printf("  slot use        %.0f%% of map-slot time\n", 100*s.SlotUtilization)
		if timeline {
			fmt.Println()
			fmt.Print(s.Timeline(100))
		}
	} else {
		fmt.Printf("  wall time       %v\n", res.Elapsed)
		if len(res.TaskCounts) > 0 {
			fmt.Printf("  task counts    ")
			for _, name := range sortedKeys(res.TaskCounts) {
				// The net backend reports each tracker's device kind;
				// print it next to the count so the heterogeneous skew
				// is visible at a glance.
				if kind := res.Devices[name]; kind != "" {
					fmt.Printf(" %s(%s)=%d", name, kind, res.TaskCounts[name])
				} else {
					fmt.Printf(" %s=%d", name, res.TaskCounts[name])
				}
			}
			fmt.Println()
		}
	}
	switch job.Kind {
	case engine.Pi:
		if res.Total > 0 {
			fmt.Printf("  pi              %.6f (%d of %d samples inside)\n",
				res.Pi, res.Inside, res.Total)
		}
	case engine.Wordcount:
		if res.Pairs != nil {
			fmt.Printf("  distinct words  %d\n", len(res.Pairs))
		}
	case engine.Sort, engine.Encrypt:
		if res.Bytes != nil {
			fmt.Printf("  output          %d bytes\n", len(res.Bytes))
		}
		if res.OutputBytes > 0 {
			fmt.Printf("  output          %d bytes streamed to sink\n", res.OutputBytes)
		}
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
