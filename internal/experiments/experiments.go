// Package experiments regenerates every figure of the paper's
// evaluation section (§IV). The single-node "raw" figures (2 and 6)
// come from the calibrated Cell offload model; the distributed figures
// (4, 5, 7, 8) are produced by running the full Hadoop/HDFS protocol
// on the discrete-event simulator at the paper's testbed scale and
// measuring job makespans.
package experiments

import (
	"fmt"

	"hetmr/internal/cellbe"
	"hetmr/internal/cellmr"
	"hetmr/internal/cluster"
	"hetmr/internal/hadoop"
	"hetmr/internal/hdfs"
	"hetmr/internal/perfmodel"
	"hetmr/internal/sim"
	"hetmr/internal/workload"
)

// Default sweep parameters, matching the paper's figures.
var (
	// Fig2Sizes are the encrypted working-set sizes in MB (Fig. 2's
	// x axis, 1..1024 MB).
	Fig2Sizes = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// Fig4Nodes is Fig. 4's x axis.
	Fig4Nodes = []int{12, 24, 36, 48, 60}
	// Fig5Nodes is Fig. 5's x axis.
	Fig5Nodes = []int{4, 8, 16, 32, 64}
	// Fig6Samples is Fig. 6's x axis (1e3..1e9).
	Fig6Samples = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	// Fig7Samples is Fig. 7's x axis (1e3..1e12).
	Fig7Samples = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12}
	// Fig7NodeCount is the fixed cluster size of Fig. 7.
	Fig7NodeCount = 50
	// Fig8Nodes is Fig. 8's x axis.
	Fig8Nodes = []int{4, 8, 16, 32, 64}
	// Fig8Samples is Fig. 8's fixed workload (1e11 samples).
	Fig8Samples = int64(1e11)
)

// Fig2RawEncryption reproduces Figure 2: single-node encryption
// bandwidth (MB/s) versus working-set size (MB) for the four
// configurations — direct Cell offload, the MapReduce-for-Cell
// framework, Java on the Cell PPE, and Java on a Power6 core. No
// Hadoop is involved.
func Fig2RawEncryption() Figure {
	fig := Figure{
		ID:     "fig2",
		Title:  "Raw node encryption performance",
		XLabel: "Size(MB)",
		YLabel: "Bandwidth (MB/s)",
		XLog:   true,
		YLog:   true,
	}
	cell := Series{Label: "Cell BE"}
	cellMR := Series{Label: "MapReduce Cell"}
	ppc := Series{Label: "PPC"}
	power6 := Series{Label: "Power 6"}
	for _, mb := range Fig2Sizes {
		bytes := mb << 20
		x := float64(mb)
		directSec := cellbe.StreamOffloadTime(bytes, perfmodel.SPEsPerCell,
			perfmodel.SPEBlockBytes, perfmodel.AESSPEBytesPerSec).TotalSeconds
		cell.Points = append(cell.Points, Point{X: x, Y: bw(bytes, directSec)})

		fwSec := cellmrEstimate(bytes)
		cellMR.Points = append(cellMR.Points, Point{X: x, Y: bw(bytes, fwSec)})

		ppc.Points = append(ppc.Points, Point{X: x,
			Y: bw(bytes, cellbe.HostComputeTime(bytes, perfmodel.AESPPEBytesPerSec))})
		power6.Points = append(power6.Points, Point{X: x,
			Y: bw(bytes, cellbe.HostComputeTime(bytes, perfmodel.AESPower6BytesPerSec))})
	}
	fig.Series = []Series{cell, cellMR, ppc, power6}
	return fig
}

// cellmrEstimate models the framework path of Fig. 2 (staging copy +
// framework init + SPE streaming).
func cellmrEstimate(bytes int64) float64 {
	chip := cellbe.NewChip(0)
	fw, err := cellmr.New(chip, perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
	if err != nil {
		panic(err) // static configuration, cannot fail
	}
	return fw.EstimateStreamTime(bytes, perfmodel.AESSPEBytesPerSec)
}

// bw converts bytes and seconds into MB/s.
func bw(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / seconds
}

// Fig6RawPi reproduces Figure 6: single-node Pi estimation throughput
// (samples/s) versus total samples for the Cell SPEs, the PPE and a
// Power6 core.
func Fig6RawPi() Figure {
	fig := Figure{
		ID:     "fig6",
		Title:  "Raw node Pi estimation performance",
		XLabel: "Samples",
		YLabel: "Samples/sec",
		XLog:   true,
		YLog:   true,
	}
	cell := Series{Label: "Cell BE"}
	ppc := Series{Label: "PPC"}
	power6 := Series{Label: "Power 6"}
	for _, n := range Fig6Samples {
		x := float64(n)
		cellSec := cellbe.ComputeOffloadTime(n, perfmodel.SPEsPerCell,
			perfmodel.PiSPESamplesPerSec).TotalSeconds
		cell.Points = append(cell.Points, Point{X: x, Y: float64(n) / cellSec})
		ppc.Points = append(ppc.Points, Point{X: x,
			Y: float64(n) / cellbe.HostComputeTime(n, perfmodel.PiPPESamplesPerSec)})
		power6.Points = append(power6.Points, Point{X: x,
			Y: float64(n) / cellbe.HostComputeTime(n, perfmodel.PiPower6SamplesPerSec)})
	}
	fig.Series = []Series{cell, ppc, power6}
	return fig
}

// SimRun holds one simulated distributed measurement.
type SimRun struct {
	Nodes    int
	Seconds  float64
	Result   *hadoop.JobResult
	Energy   float64
	Attempts int
}

// RunDistributed executes one job described by (splits, mapper) on a
// fresh simulated cluster of nWorkers nodes and returns the measured
// makespan. buildSplits is called with the cluster's DFS so data
// placement matches the cluster.
func RunDistributed(nWorkers int, cfg hadoop.Config,
	buildSplits func(nn *hdfs.NameNode, nodes []string) ([]hadoop.Split, error),
	mapperFor func(*cluster.Node) hadoop.Mapper, opts ...cluster.Option) (SimRun, error) {
	return RunDistributedJob(nWorkers, cfg, buildSplits,
		&hadoop.Job{Name: "experiment", MapperFor: mapperFor}, opts...)
}

// RunDistributedJob is RunDistributed with a caller-provided job
// template (reduce count, reduce rate); its Splits are filled from
// buildSplits.
func RunDistributedJob(nWorkers int, cfg hadoop.Config,
	buildSplits func(nn *hdfs.NameNode, nodes []string) ([]hadoop.Split, error),
	job *hadoop.Job, opts ...cluster.Option) (SimRun, error) {
	eng := sim.NewEngine(2009)
	clus, err := cluster.New(eng, nWorkers, opts...)
	if err != nil {
		return SimRun{}, err
	}
	nn, err := hdfs.NewNameNode(perfmodel.HDFSBlockBytes, perfmodel.ReplicationFactor)
	if err != nil {
		return SimRun{}, err
	}
	var nodeNames []string
	for _, n := range clus.Nodes {
		if _, err := nn.RegisterDataNode(n.Name); err != nil {
			return SimRun{}, err
		}
		nodeNames = append(nodeNames, n.Name)
	}
	splits, err := buildSplits(nn, nodeNames)
	if err != nil {
		return SimRun{}, err
	}
	rt := hadoop.NewRuntime(eng, clus, cfg)
	job.Splits = splits
	handle, err := rt.Submit(job)
	if err != nil {
		rt.Shutdown()
		return SimRun{}, err
	}
	var result *hadoop.JobResult
	eng.Spawn("driver", func(p *sim.Proc) {
		result = handle.Wait(p)
		rt.Shutdown()
	})
	if _, err := eng.Run(); err != nil {
		return SimRun{}, err
	}
	if result == nil {
		return SimRun{}, fmt.Errorf("experiments: job did not finish")
	}
	return SimRun{
		Nodes:    nWorkers,
		Seconds:  result.Duration().Seconds(),
		Result:   result,
		Energy:   result.EnergyJoules,
		Attempts: result.Attempts,
	}, nil
}

// encryptionSplitBuilder returns a buildSplits closure creating
// bytesPerMapper of pinned data per mapper.
func encryptionSplitBuilder(bytesPerMapper int64) func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
	return func(nn *hdfs.NameNode, nodes []string) ([]hadoop.Split, error) {
		return workload.EncryptionDataset(nn, nodes, perfmodel.MapSlotsPerNode, bytesPerMapper)
	}
}

// Fig4ProportionalEncryption reproduces Figure 4: distributed
// encryption with the data set proportional to the mapper count (1 GB
// per mapper, 2 mappers per node), Java versus Cell mappers, versus
// node count.
func Fig4ProportionalEncryption(nodeCounts []int) (Figure, error) {
	fig := Figure{
		ID:     "fig4",
		Title:  "Distributed encryption performance: proportional data set",
		XLabel: "Nodes",
		YLabel: "Time(s)",
	}
	const bytesPerMapper = 1 << 30 // "a fixed proportion of 1GB per mapper"
	java := Series{Label: "Java Mapper"}
	cell := Series{Label: "Cell BE Mapper"}
	for _, n := range nodeCounts {
		jr, err := RunDistributed(n, hadoop.DefaultConfig(),
			encryptionSplitBuilder(bytesPerMapper),
			hadoop.StaticMapperFor(hadoop.JavaAESMapper{}))
		if err != nil {
			return fig, err
		}
		java.Points = append(java.Points, Point{X: float64(n), Y: jr.Seconds})
		cr, err := RunDistributed(n, hadoop.DefaultConfig(),
			encryptionSplitBuilder(bytesPerMapper),
			hadoop.StaticMapperFor(hadoop.CellAESMapper{}))
		if err != nil {
			return fig, err
		}
		cell.Points = append(cell.Points, Point{X: float64(n), Y: cr.Seconds})
	}
	fig.Series = []Series{java, cell}
	return fig, nil
}

// Fig5FixedEncryption reproduces Figure 5: distributed encryption of a
// fixed 120 GB data set versus node count, with the EmptyMapper
// isolating the Hadoop runtime overhead.
func Fig5FixedEncryption(nodeCounts []int) (Figure, error) {
	fig := Figure{
		ID:     "fig5",
		Title:  "Distributed encryption performance: 120GB data set",
		XLabel: "Nodes",
		YLabel: "Time(s)",
		YLog:   true,
	}
	const totalBytes = 120 << 30 // "a fixed data set size of 120GB"
	empty := Series{Label: "Empty Mapper"}
	java := Series{Label: "Java Mapper"}
	cell := Series{Label: "Cell Mapper"}
	for _, n := range nodeCounts {
		perMapper := totalBytes / int64(n*perfmodel.MapSlotsPerNode)
		for _, cfg := range []struct {
			series *Series
			mapper hadoop.Mapper
		}{
			{&empty, hadoop.EmptyMapper{}},
			{&java, hadoop.JavaAESMapper{}},
			{&cell, hadoop.CellAESMapper{}},
		} {
			run, err := RunDistributed(n, hadoop.DefaultConfig(),
				encryptionSplitBuilder(perMapper),
				hadoop.StaticMapperFor(cfg.mapper))
			if err != nil {
				return fig, err
			}
			cfg.series.Points = append(cfg.series.Points,
				Point{X: float64(n), Y: run.Seconds})
		}
	}
	fig.Series = []Series{empty, java, cell}
	return fig, nil
}

// piSplitBuilder builds the PiEstimator split layout: 2 maps per node.
func piSplitBuilder(total int64, nWorkers int) func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
	return func(*hdfs.NameNode, []string) ([]hadoop.Split, error) {
		return workload.PiSplits(total, nWorkers*perfmodel.MapSlotsPerNode)
	}
}

// Fig7DistributedPiSweep reproduces Figure 7: Pi estimation on a fixed
// 50-node cluster, sweeping the total sample count, Java versus Cell
// mappers.
func Fig7DistributedPiSweep(nWorkers int, samples []int64) (Figure, error) {
	fig := Figure{
		ID:     "fig7",
		Title:  fmt.Sprintf("Distributed Pi estimation performance: %d nodes", nWorkers),
		XLabel: "Samples",
		YLabel: "Time(s)",
		XLog:   true,
		YLog:   true,
	}
	java := Series{Label: "Java Mapper"}
	cell := Series{Label: "Cell BE Mapper"}
	for _, total := range samples {
		jr, err := RunDistributedJob(nWorkers, hadoop.DefaultConfig(),
			piSplitBuilder(total, nWorkers),
			&hadoop.Job{Name: "pi-java", Reduces: 1,
				MapperFor: hadoop.StaticMapperFor(hadoop.JavaPiMapper{})})
		if err != nil {
			return fig, err
		}
		java.Points = append(java.Points, Point{X: float64(total), Y: jr.Seconds})
		cr, err := RunDistributedJob(nWorkers, hadoop.DefaultConfig(),
			piSplitBuilder(total, nWorkers),
			&hadoop.Job{Name: "pi-cell", Reduces: 1,
				MapperFor: hadoop.StaticMapperFor(hadoop.CellPiMapper{})})
		if err != nil {
			return fig, err
		}
		cell.Points = append(cell.Points, Point{X: float64(total), Y: cr.Seconds})
	}
	fig.Series = []Series{java, cell}
	return fig, nil
}

// Fig8DistributedPiScaling reproduces Figure 8: Pi estimation of 1e11
// samples versus node count — Java, Cell, and Cell with 10x samples
// (which shows where the Hadoop runtime floor reappears).
func Fig8DistributedPiScaling(nodeCounts []int) (Figure, error) {
	fig := Figure{
		ID:     "fig8",
		Title:  "Distributed Pi estimation performance: 1e+11 samples",
		XLabel: "Nodes",
		YLabel: "Time(s)",
		YLog:   true,
	}
	cell := Series{Label: "Cell BE Mapper"}
	java := Series{Label: "Java Mapper"}
	cell10 := Series{Label: "Cell BE Mapper (10x samples)"}
	for _, n := range nodeCounts {
		cr, err := RunDistributedJob(n, hadoop.DefaultConfig(),
			piSplitBuilder(Fig8Samples, n),
			&hadoop.Job{Name: "pi-cell", Reduces: 1,
				MapperFor: hadoop.StaticMapperFor(hadoop.CellPiMapper{})})
		if err != nil {
			return fig, err
		}
		cell.Points = append(cell.Points, Point{X: float64(n), Y: cr.Seconds})
		jr, err := RunDistributedJob(n, hadoop.DefaultConfig(),
			piSplitBuilder(Fig8Samples, n),
			&hadoop.Job{Name: "pi-java", Reduces: 1,
				MapperFor: hadoop.StaticMapperFor(hadoop.JavaPiMapper{})})
		if err != nil {
			return fig, err
		}
		java.Points = append(java.Points, Point{X: float64(n), Y: jr.Seconds})
		cr10, err := RunDistributedJob(n, hadoop.DefaultConfig(),
			piSplitBuilder(Fig8Samples*10, n),
			&hadoop.Job{Name: "pi-cell-10x", Reduces: 1,
				MapperFor: hadoop.StaticMapperFor(hadoop.CellPiMapper{})})
		if err != nil {
			return fig, err
		}
		cell10.Points = append(cell10.Points, Point{X: float64(n), Y: cr10.Seconds})
	}
	fig.Series = []Series{cell, java, cell10}
	return fig, nil
}
