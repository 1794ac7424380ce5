// Command repro regenerates every figure of Becerra et al., "Speeding
// Up Distributed MapReduce Applications Using Hardware Accelerators"
// (ICPP 2009), printing each figure's data series as a text table and
// optionally writing TSV files for plotting.
//
// Usage:
//
//	repro              # all figures
//	repro -fig 5       # one figure
//	repro -tsv out/    # also write out/figN.tsv
//	repro -quick       # reduced sweeps (CI-sized) + backend conformance check
//	repro -conformance # only the cross-backend conformance check
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hetmr/internal/engine"
	"hetmr/internal/experiments"
	"hetmr/internal/kernels"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (2,4,5,6,7,8); 0 = all")
	tsvDir := flag.String("tsv", "", "directory to write per-figure TSV files")
	quick := flag.Bool("quick", false, "reduced sweeps for quick runs")
	conformance := flag.Bool("conformance", false, "run only the cross-backend conformance check")
	flag.Parse()

	if *quick || *conformance {
		if err := checkConformance(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if *conformance {
			return
		}
		fmt.Println()
	}
	if err := run(*fig, *tsvDir, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// checkConformance runs the same wordcount, sort, pi and encrypt jobs on
// every registered backend through the engine and verifies the results
// agree — the figures below are only trustworthy if the runners they
// are drawn from compute the same thing.
func checkConformance() error {
	cfg := engine.Config{Workers: 3, BlockSize: 5_000}
	var corpus bytes.Buffer
	for i := 0; i < 2_000; i++ {
		fmt.Fprintf(&corpus, "speedup mapreduce accelerator word%03d cell ", i%89)
	}
	jobs := []*engine.Job{
		{Kind: engine.Wordcount, Input: corpus.Bytes()},
		{Kind: engine.Sort, Input: kernels.GenerateSortRecords(2009, 800)},
		{Kind: engine.Pi, Samples: 200_000, Tasks: 6},
		{
			Kind:  engine.Encrypt,
			Input: corpus.Bytes()[:10_000],
			Key:   []byte("repro-conf-key!!"),
		},
	}
	backends := engine.Backends()
	fmt.Printf("cross-backend conformance (%v):\n", backends)
	// One booted cluster per backend, reused for every job.
	results := make(map[string][]*engine.Result)
	for _, backend := range backends {
		r, err := engine.New(backend, cfg)
		if err != nil {
			return fmt.Errorf("conformance: boot %s: %w", backend, err)
		}
		for _, job := range jobs {
			res, err := r.Run(job)
			if err != nil {
				r.Close()
				return fmt.Errorf("conformance %s on %s: %w", job.Kind, backend, err)
			}
			results[backend] = append(results[backend], res)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("conformance: close %s: %w", backend, err)
		}
	}
	for i, job := range jobs {
		ref := results[backends[0]][i]
		for _, backend := range backends[1:] {
			if err := engine.SameResult(job.Kind, ref, results[backend][i]); err != nil {
				return fmt.Errorf("conformance %s: %s vs %s: %w", job.Kind, ref.Backend, backend, err)
			}
		}
		fmt.Printf("  %-10s identical on all backends\n", job.Kind)
	}
	return nil
}

func run(figNum int, tsvDir string, quick bool) error {
	fig4Nodes := experiments.Fig4Nodes
	fig5Nodes := experiments.Fig5Nodes
	fig7Samples := experiments.Fig7Samples
	fig7Nodes := experiments.Fig7NodeCount
	fig8Nodes := experiments.Fig8Nodes
	if quick {
		fig4Nodes = []int{12, 24}
		fig5Nodes = []int{4, 16}
		fig7Samples = []int64{1e6, 1e9, 1e11}
		fig7Nodes = 10
		fig8Nodes = []int{4, 16}
	}

	type genFn func() (experiments.Figure, error)
	gens := map[int]genFn{
		2: func() (experiments.Figure, error) { return experiments.Fig2RawEncryption(), nil },
		4: func() (experiments.Figure, error) { return experiments.Fig4ProportionalEncryption(fig4Nodes) },
		5: func() (experiments.Figure, error) { return experiments.Fig5FixedEncryption(fig5Nodes) },
		6: func() (experiments.Figure, error) { return experiments.Fig6RawPi(), nil },
		7: func() (experiments.Figure, error) { return experiments.Fig7DistributedPiSweep(fig7Nodes, fig7Samples) },
		8: func() (experiments.Figure, error) { return experiments.Fig8DistributedPiScaling(fig8Nodes) },
	}
	order := []int{2, 4, 5, 6, 7, 8}
	if figNum != 0 {
		if _, ok := gens[figNum]; !ok {
			return fmt.Errorf("unknown figure %d (have 2,4,5,6,7,8)", figNum)
		}
		order = []int{figNum}
	}
	for _, n := range order {
		fig, err := gens[n]()
		if err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if tsvDir != "" {
			if err := os.MkdirAll(tsvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(tsvDir, fig.ID+".tsv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fig.WriteTSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	return nil
}
