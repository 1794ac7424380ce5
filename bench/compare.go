package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per workload × end-to-end metric of two
// result files — both medians, b's median as a ratio of a's, the
// bound and a verdict — and reports whether any row is worse.
//
// A row is unresolved when either side's recorded spread (interquartile
// range over its runs, as a share of the median) exceeds the bound: the
// runs cannot tell a change of that size from noise. Otherwise it is
// worse or better when b's median differs from a's by more than the
// bound in that direction, and same in between.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a = %s (%d s runs), b = %s (%d s runs); ratio is b/a\n", pathA, int(a.Seconds), pathB, int(b.Seconds))
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "b/a", "a iqr", "b iqr", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := a.values(wl.name, spec.Name), b.values(wl.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			change := medB/medA - 1 // positive: b is larger
			if spec.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case sa > spec.Bound || sb > spec.Bound:
				verdict = "unresolved"
			case change > spec.Bound:
				verdict = "worse"
				worse = true
			case change < -spec.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %8.3f %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.name, spec.Name, medA, medB, medB/medA, 100*sa, 100*sb, 100*spec.Bound, verdict, len(va), len(vb))
		}
	}
	return worse, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's untraced
// runs.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, m.Value)
		}
	}
	return vs
}
