package experiments

import (
	"math"
	"strings"
	"testing"
)

func sampleFigure() Figure {
	return Figure{
		ID:     "figX",
		Title:  "Test figure",
		XLabel: "Nodes",
		YLabel: "Time(s)",
		YLog:   true,
		Series: []Series{
			{Label: "A", Points: []Point{{4, 100}, {8, 50}}},
			{Label: "B", Points: []Point{{4, 200}, {8, 120.5}}},
		},
	}
}

func TestSeriesY(t *testing.T) {
	f := sampleFigure()
	if y := f.Series[0].Y(4); y != 100 {
		t.Errorf("Y(4) = %g", y)
	}
	if y := f.Series[0].Y(99); !math.IsNaN(y) {
		t.Errorf("Y(99) = %g, want NaN", y)
	}
}

func TestFindSeries(t *testing.T) {
	f := sampleFigure()
	if s := f.FindSeries("B"); s == nil || s.Label != "B" {
		t.Error("FindSeries(B) failed")
	}
	if s := f.FindSeries("missing"); s != nil {
		t.Error("FindSeries(missing) should be nil")
	}
}

func TestXValuesUnionOrdered(t *testing.T) {
	f := sampleFigure()
	f.Series[1].Points = append(f.Series[1].Points, Point{X: 16, Y: 60})
	xs := f.XValues()
	want := []float64{4, 8, 16}
	if len(xs) != 3 {
		t.Fatalf("XValues = %v", xs)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Errorf("xs[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestRenderContainsEverything(t *testing.T) {
	f := sampleFigure()
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIGX", "Test figure", "Nodes", "Time(s) (log)", "A", "B", "100", "120.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Rows: title + axes + header + 2 data rows.
	if lines := strings.Count(strings.TrimRight(out, "\n"), "\n") + 1; lines != 5 {
		t.Errorf("render has %d lines, want 5:\n%s", lines, out)
	}
}

func TestRenderMissingPointDash(t *testing.T) {
	f := sampleFigure()
	f.Series[1].Points = f.Series[1].Points[:1] // B has no x=8
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-") {
		t.Error("missing point should render as dash")
	}
}

func TestWriteTSV(t *testing.T) {
	f := sampleFigure()
	var sb strings.Builder
	if err := f.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("TSV has %d lines, want 3", len(lines))
	}
	if lines[0] != "Nodes\tA\tB" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4\t") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		42:       "42",
		42.5:     "42.50",
		1e9:      "1e+09",
		0.000001: "1e-06",
	}
	for v, want := range cases {
		if got := formatNum(v); got != want {
			t.Errorf("formatNum(%g) = %q, want %q", v, got, want)
		}
	}
	if got := formatNum(math.NaN()); got != "-" {
		t.Errorf("formatNum(NaN) = %q", got)
	}
}
