package experiments

import (
	"math"
	"testing"

	"hetmr/internal/hadoop"
	"hetmr/internal/hdfs"
	"hetmr/internal/perfmodel"
)

// These tests assert the acceptance criteria of DESIGN.md §4: the
// *shapes* of the paper's figures (who wins, by what rough factor,
// where floors and crossovers fall), on reduced sweeps so the suite
// stays fast.

func yAt(t *testing.T, fig *Figure, label string, x float64) float64 {
	t.Helper()
	s := fig.FindSeries(label)
	if s == nil {
		t.Fatalf("%s: missing series %q", fig.ID, label)
	}
	y := s.Y(x)
	if math.IsNaN(y) {
		t.Fatalf("%s: series %q has no point at x=%g", fig.ID, label, x)
	}
	return y
}

func TestFig2Shape(t *testing.T) {
	fig := Fig2RawEncryption()
	if len(fig.Series) != 4 {
		t.Fatalf("fig2 has %d series, want 4", len(fig.Series))
	}
	big := float64(Fig2Sizes[len(Fig2Sizes)-1])
	cell := yAt(t, &fig, "Cell BE", big)
	fw := yAt(t, &fig, "MapReduce Cell", big)
	ppc := yAt(t, &fig, "PPC", big)
	p6 := yAt(t, &fig, "Power 6", big)
	// Paper ordering at scale: Cell > framework > Power6 > PPE.
	if !(cell > fw && fw > p6 && p6 > ppc) {
		t.Errorf("fig2 ordering broken: cell=%.0f fw=%.0f p6=%.0f ppc=%.0f", cell, fw, p6, ppc)
	}
	// "near 700MB/s" and "around 45MB/s".
	if cell < 600 || cell > 700 {
		t.Errorf("cell bandwidth %.0f MB/s, want near 700", cell)
	}
	if p6 < 40 || p6 > 50 {
		t.Errorf("power6 bandwidth %.0f MB/s, want around 45", p6)
	}
	// Cell curves rise with size (init amortization).
	if yAt(t, &fig, "Cell BE", 1) >= cell {
		t.Error("fig2: Cell bandwidth should rise with size")
	}
}

func TestFig6Shape(t *testing.T) {
	fig := Fig6RawPi()
	small, large := float64(Fig6Samples[0]), float64(Fig6Samples[len(Fig6Samples)-1])
	// At 1e3 samples the SPU init overhead puts Cell below the CPUs.
	if yAt(t, &fig, "Cell BE", small) >= yAt(t, &fig, "Power 6", small) {
		t.Error("fig6: Cell should lose at tiny sample counts (SPU init)")
	}
	// At 1e9, Cell is one order of magnitude over Power6, more over
	// the PPE.
	ratio := yAt(t, &fig, "Cell BE", large) / yAt(t, &fig, "Power 6", large)
	if ratio < 8 || ratio > 40 {
		t.Errorf("fig6: Cell/Power6 = %.1f, want roughly one order of magnitude", ratio)
	}
	if yAt(t, &fig, "Power 6", large) <= yAt(t, &fig, "PPC", large) {
		t.Error("fig6: Power6 should beat the PPE")
	}
	// A crossover exists: Cell loses somewhere and wins somewhere.
	cell := fig.FindSeries("Cell BE")
	p6 := fig.FindSeries("Power 6")
	crossed := false
	for i := range cell.Points {
		if cell.Points[i].Y > p6.Points[i].Y {
			crossed = true
		}
	}
	if !crossed {
		t.Error("fig6: no crossover found")
	}
}

func TestFig4Shape(t *testing.T) {
	nodes := []int{12, 24}
	fig, err := Fig4ProportionalEncryption(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		x := float64(n)
		java := yAt(t, &fig, "Java Mapper", x)
		cell := yAt(t, &fig, "Cell BE Mapper", x)
		// "the Cell-accelerated mapper and the Java mapper offer a
		// very similar performance": within 25%, Cell no slower.
		if cell > java {
			t.Errorf("fig4 @%d: cell (%.0f) slower than java (%.0f)", n, cell, java)
		}
		if java/cell > 1.25 {
			t.Errorf("fig4 @%d: java/cell = %.2f, should be near 1 (runtime-bound)", n, java/cell)
		}
	}
	// Weak scaling: time roughly flat as nodes grow (within 30%).
	j12, j24 := yAt(t, &fig, "Java Mapper", 12), yAt(t, &fig, "Java Mapper", 24)
	if j24/j12 > 1.3 || j12/j24 > 1.3 {
		t.Errorf("fig4: weak scaling broken: %.0f s @12 vs %.0f s @24", j12, j24)
	}
}

func TestFig5Shape(t *testing.T) {
	nodes := []int{4, 16}
	fig, err := Fig5FixedEncryption(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		x := float64(n)
		empty := yAt(t, &fig, "Empty Mapper", x)
		java := yAt(t, &fig, "Java Mapper", x)
		cell := yAt(t, &fig, "Cell Mapper", x)
		// "the difference ... between the Empty mapper and the other
		// mappers is really small".
		if java/empty > 1.35 {
			t.Errorf("fig5 @%d: java/empty = %.2f, want small gap", n, java/empty)
		}
		if cell/empty > 1.1 {
			t.Errorf("fig5 @%d: cell/empty = %.2f, want tiny gap", n, cell/empty)
		}
		if empty > java {
			t.Errorf("fig5 @%d: empty (%.0f) slower than java (%.0f)", n, empty, java)
		}
	}
	// Strong scaling: "the Hadoop runtime scales well with the number
	// of nodes" — 4x nodes should cut time by at least 2.5x.
	e4, e16 := yAt(t, &fig, "Empty Mapper", 4), yAt(t, &fig, "Empty Mapper", 16)
	if e4/e16 < 2.5 {
		t.Errorf("fig5: scaling factor %.1f over 4x nodes, want >= 2.5", e4/e16)
	}
}

func TestFig7Shape(t *testing.T) {
	samples := []int64{1e6, 1e9, 1e11}
	fig, err := Fig7DistributedPiSweep(10, samples)
	if err != nil {
		t.Fatal(err)
	}
	// Small problems: both mappers sit on the same Hadoop floor.
	jSmall := yAt(t, &fig, "Java Mapper", 1e6)
	cSmall := yAt(t, &fig, "Cell BE Mapper", 1e6)
	if math.Abs(jSmall-cSmall)/jSmall > 0.05 {
		t.Errorf("fig7: floor differs: java %.1f vs cell %.1f", jSmall, cSmall)
	}
	// Large problems: the Cell mapper "clearly outperforms" Java.
	jBig := yAt(t, &fig, "Java Mapper", 1e11)
	cBig := yAt(t, &fig, "Cell BE Mapper", 1e11)
	if jBig/cBig < 5 {
		t.Errorf("fig7: java/cell at 1e11 = %.1f, want >> 1", jBig/cBig)
	}
	// Java departs the floor earlier than Cell.
	jMid := yAt(t, &fig, "Java Mapper", 1e9)
	cMid := yAt(t, &fig, "Cell BE Mapper", 1e9)
	if (jMid-jSmall)/jSmall < 0.2 {
		t.Errorf("fig7: java should have left the floor by 1e9 (%.1f vs %.1f)", jMid, jSmall)
	}
	if (cMid-cSmall)/cSmall > 0.2 {
		t.Errorf("fig7: cell should still be near the floor at 1e9 (%.1f vs %.1f)", cMid, cSmall)
	}
}

func TestFig8Shape(t *testing.T) {
	nodes := []int{4, 16, 64}
	fig, err := Fig8DistributedPiScaling(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Java scales near-linearly over the whole range.
	j4, j64 := yAt(t, &fig, "Java Mapper", 4), yAt(t, &fig, "Java Mapper", 64)
	if j4/j64 < 8 {
		t.Errorf("fig8: java speedup over 16x nodes = %.1f, want near-linear", j4/j64)
	}
	// Cell is one to two orders faster than Java.
	c4 := yAt(t, &fig, "Cell BE Mapper", 4)
	if r := j4 / c4; r < 10 || r > 200 {
		t.Errorf("fig8: java/cell at 4 nodes = %.0f, want 1-2 orders of magnitude", r)
	}
	// Cell stops scaling: the 16 -> 64 improvement is far from
	// linear (the Hadoop runtime floor).
	c16, c64 := yAt(t, &fig, "Cell BE Mapper", 16), yAt(t, &fig, "Cell BE Mapper", 64)
	if c16/c64 > 2.0 {
		t.Errorf("fig8: cell kept scaling 16->64 (factor %.1f); floor should bite", c16/c64)
	}
	// The 10x run keeps the slope longer than the 1x run.
	x16, x64 := yAt(t, &fig, "Cell BE Mapper (10x samples)", 16),
		yAt(t, &fig, "Cell BE Mapper (10x samples)", 64)
	if x16/x64 <= c16/c64 {
		t.Errorf("fig8: 10x run (factor %.2f) should out-scale 1x run (factor %.2f)",
			x16/x64, c16/c64)
	}
}

func TestRunDistributedErrors(t *testing.T) {
	cfg := hadoop.DefaultConfig()
	ok := func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
		return []hadoop.Split{{Index: 0, Samples: 1}}, nil
	}
	mapper := hadoop.StaticMapperFor(hadoop.EmptyMapper{})
	if _, err := RunDistributed(0, cfg, ok, mapper); err == nil {
		t.Error("zero workers should fail")
	}
	bad := func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
		return nil, hdfs.ErrNotFound
	}
	if _, err := RunDistributed(2, cfg, bad, mapper); err == nil {
		t.Error("split builder error should propagate")
	}
	empty := func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
		return nil, nil
	}
	if _, err := RunDistributed(2, cfg, empty, mapper); err == nil {
		t.Error("empty split set should fail validation")
	}
}

func TestRunDistributedLocality(t *testing.T) {
	run, err := RunDistributed(4, hadoop.DefaultConfig(),
		encryptionSplitBuilder(256<<20),
		hadoop.StaticMapperFor(hadoop.EmptyMapper{}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.RemoteReads != 0 {
		t.Errorf("pinned dataset produced %d remote reads", run.Result.RemoteReads)
	}
	wantBytes := int64(4*perfmodel.MapSlotsPerNode) * (256 << 20)
	if run.Result.InputBytes != wantBytes {
		t.Errorf("input bytes = %d, want %d", run.Result.InputBytes, wantBytes)
	}
	if run.Energy <= 0 {
		t.Error("energy missing")
	}
}

func TestRunDistributedDeterminism(t *testing.T) {
	do := func() float64 {
		run, err := RunDistributed(4, hadoop.DefaultConfig(),
			piSplitBuilder(1e9, 4),
			hadoop.StaticMapperFor(hadoop.CellPiMapper{}))
		if err != nil {
			t.Fatal(err)
		}
		return run.Seconds
	}
	a, b := do(), do()
	if a != b {
		t.Errorf("simulation not deterministic: %.6f vs %.6f", a, b)
	}
}
