package experiments

// This file is the figure/series data model the generators produce and
// cmd/repro renders: each of the paper's figures becomes a Figure with
// labelled series, printable as an aligned text table or as TSV for
// external plotting.

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one (x, y) measurement.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Y returns the series' y value at x, or NaN if absent.
func (s *Series) Y(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// Figure is one reproduced paper figure.
type Figure struct {
	ID     string // e.g. "fig2"
	Title  string
	XLabel string
	YLabel string
	XLog   bool
	YLog   bool
	Series []Series
}

// FindSeries returns the series with the given label, or nil.
func (f *Figure) FindSeries(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// XValues returns the union of x values across series, in first-seen
// order (series are expected to share a sweep).
func (f *Figure) XValues() []float64 {
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	return xs
}

// Render writes the figure as an aligned text table, one row per x
// value and one column per series — the same rows/series the paper
// plots.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	axes := fmt.Sprintf("x: %s%s, y: %s%s", f.XLabel, logTag(f.XLog), f.YLabel, logTag(f.YLog))
	if _, err := fmt.Fprintln(w, axes); err != nil {
		return err
	}
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Label)
	}
	rows := [][]string{headers}
	for _, x := range f.XValues() {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			row = append(row, formatNum(s.Y(x)))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var sb strings.Builder
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTSV emits the figure as tab-separated values with a header row,
// convenient for gnuplot.
func (f *Figure) WriteTSV(w io.Writer) error {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, "\t")); err != nil {
		return err
	}
	for _, x := range f.XValues() {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			row = append(row, formatNum(s.Y(x)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

func logTag(on bool) string {
	if on {
		return " (log)"
	}
	return ""
}

// formatNum renders numbers compactly: integers plainly, large/small
// magnitudes in scientific notation, NaN as "-".
func formatNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e7 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
