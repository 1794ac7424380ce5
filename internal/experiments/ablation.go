package experiments

import (
	"fmt"

	"hetmr/internal/cellbe"
	"hetmr/internal/cluster"
	"hetmr/internal/hadoop"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sim"
)

// Ablations: each function sweeps one calibrated design parameter and
// regenerates a reduced experiment, quantifying how much of the
// paper's conclusion rests on that parameter.

// AblationLoopbackRate sweeps the effective DataNode->Mapper record
// delivery rate on a fixed-size encryption run (8 nodes, 4 GB/mapper)
// and reports Java and Cell makespans. The paper's data-intensive
// conclusion — acceleration hidden behind record delivery — must
// dissolve as delivery gets faster: the Java/Cell gap opens toward the
// raw Fig. 2 ratio.
func AblationLoopbackRate(ratesMBps []float64) (Figure, error) {
	fig := Figure{
		ID:     "ablation-loopback",
		Title:  "Record delivery rate vs. encryption makespan (8 nodes, 4GB/mapper)",
		XLabel: "Delivery(MB/s)",
		YLabel: "Time(s)",
	}
	const nodes = 8
	const perMapper = 4 << 30
	java := Series{Label: "Java Mapper"}
	cell := Series{Label: "Cell Mapper"}
	gap := Series{Label: "Java/Cell"}
	for _, rate := range ratesMBps {
		opt := cluster.WithLoopbackRate(rate * 1e6)
		jr, err := RunDistributed(nodes, hadoop.DefaultConfig(),
			encryptionSplitBuilder(perMapper),
			hadoop.StaticMapperFor(hadoop.JavaAESMapper{}), opt)
		if err != nil {
			return fig, err
		}
		cr, err := RunDistributed(nodes, hadoop.DefaultConfig(),
			encryptionSplitBuilder(perMapper),
			hadoop.StaticMapperFor(hadoop.CellAESMapper{}), opt)
		if err != nil {
			return fig, err
		}
		java.Points = append(java.Points, Point{X: rate, Y: jr.Seconds})
		cell.Points = append(cell.Points, Point{X: rate, Y: cr.Seconds})
		gap.Points = append(gap.Points, Point{X: rate, Y: jr.Seconds / cr.Seconds})
	}
	fig.Series = []Series{java, cell, gap}
	return fig, nil
}

// AblationHeartbeat sweeps the TaskTracker heartbeat interval on a
// small CPU-intensive job (the Hadoop floor of Figs. 7/8 is largely
// heartbeat quantization: one task per heartbeat).
func AblationHeartbeat(intervalsSec []float64) (Figure, error) {
	fig := Figure{
		ID:     "ablation-heartbeat",
		Title:  "Heartbeat interval vs. Pi job floor (16 nodes, 1e9 samples)",
		XLabel: "Heartbeat(s)",
		YLabel: "Time(s)",
	}
	const nodes = 16
	floor := Series{Label: "Cell Mapper"}
	for _, hb := range intervalsSec {
		cfg := hadoop.DefaultConfig()
		cfg.HeartbeatInterval = sim.Seconds(hb)
		run, err := RunDistributed(nodes, cfg,
			piSplitBuilder(1e9, nodes),
			hadoop.StaticMapperFor(hadoop.CellPiMapper{}))
		if err != nil {
			return fig, err
		}
		floor.Points = append(floor.Points, Point{X: hb, Y: run.Seconds})
	}
	fig.Series = []Series{floor}
	return fig, nil
}

// AblationHousekeeping sweeps the JobTracker's serialized per-task
// bookkeeping cost at 64 nodes (128 tasks) — the parameter behind the
// Fig. 8 scaling stall.
func AblationHousekeeping(costsSec []float64) (Figure, error) {
	fig := Figure{
		ID:     "ablation-housekeeping",
		Title:  "JobTracker per-task bookkeeping vs. makespan (64 nodes, 1e11 samples, Cell)",
		XLabel: "Bookkeeping(s)",
		YLabel: "Time(s)",
	}
	const nodes = 64
	s := Series{Label: "Cell Mapper"}
	for _, c := range costsSec {
		cfg := hadoop.DefaultConfig()
		cfg.TaskHousekeeping = sim.Seconds(c)
		run, err := RunDistributed(nodes, cfg,
			piSplitBuilder(Fig8Samples, nodes),
			hadoop.StaticMapperFor(hadoop.CellPiMapper{}))
		if err != nil {
			return fig, err
		}
		s.Points = append(s.Points, Point{X: c, Y: run.Seconds})
	}
	fig.Series = []Series{s}
	return fig, nil
}

// AblationSPEBlockSize sweeps the SPE streaming block size for the raw
// encryption offload (the paper fixes 4 KB; larger blocks amortize MFC
// issue overhead but consume local store and lengthen the pipeline
// fill).
func AblationSPEBlockSize(blockBytes []int) Figure {
	fig := Figure{
		ID:     "ablation-speblock",
		Title:  "SPE block size vs. raw encryption bandwidth (256MB input)",
		XLabel: "Block(B)",
		YLabel: "Bandwidth (MB/s)",
		XLog:   true,
	}
	const input = 256 << 20
	s := Series{Label: "Cell BE"}
	for _, b := range blockBytes {
		sec := cellbe.StreamOffloadTime(input, perfmodel.SPEsPerCell, b,
			perfmodel.AESSPEBytesPerSec).TotalSeconds
		s.Points = append(s.Points, Point{X: float64(b), Y: bw(input, sec)})
	}
	fig.Series = []Series{s}
	return fig
}

// AblationSPECount sweeps how many SPEs the offload uses (1..8) for
// the raw encryption kernel — near-linear scaling is what makes the
// Cell the paper's accelerator of choice.
func AblationSPECount() Figure {
	fig := Figure{
		ID:     "ablation-spes",
		Title:  "SPE count vs. raw encryption bandwidth (256MB input)",
		XLabel: "SPEs",
		YLabel: "Bandwidth (MB/s)",
	}
	const input = 256 << 20
	s := Series{Label: "Cell BE"}
	for n := 1; n <= perfmodel.SPEsPerCell; n++ {
		sec := cellbe.StreamOffloadTime(input, n, perfmodel.SPEBlockBytes,
			perfmodel.AESSPEBytesPerSec).TotalSeconds
		s.Points = append(s.Points, Point{X: float64(n), Y: bw(input, sec)})
	}
	fig.Series = []Series{s}
	return fig
}

// TerasortAnalysis reproduces the paper's §IV-A aside about the
// Terasort contest: with delivery-bound mappers, the per-node sorting
// rate collapses to the record delivery rate regardless of how fast
// the in-memory sort kernel is. It runs a sort-shaped job (mapper
// compute modelled at sortMBps) on `nodes` workers over totalGB of
// data and returns the observed per-node MB/s. The paper's observation
// was ~5.5 MB/s per 8-way node against in-memory sort rates far above
// that.
func TerasortAnalysis(nodes int, totalGB int, sortMBps float64) (perNodeMBps float64, err error) {
	perMapper := int64(totalGB) << 30 / int64(nodes*perfmodel.MapSlotsPerNode)
	mapper := hadoop.FixedMapper{
		Label:      "sort",
		PerRecord:  sim.Seconds(float64(perfmodel.RecordBytes) / (sortMBps * 1e6)),
		OutPerByte: 1,
	}
	run, err := RunDistributed(nodes, hadoop.DefaultConfig(),
		encryptionSplitBuilder(perMapper),
		hadoop.StaticMapperFor(mapper))
	if err != nil {
		return 0, err
	}
	totalMB := float64(run.Result.InputBytes) / 1e6
	return totalMB / run.Seconds / float64(nodes), nil
}

// String renders a one-line summary for the Terasort analysis.
func TerasortSummary(nodes, totalGB int, sortMBps, perNode float64) string {
	return fmt.Sprintf("terasort-shaped job: %d nodes, %dGB, %g MB/s sort kernel -> %.1f MB/s per node",
		nodes, totalGB, sortMBps, perNode)
}
