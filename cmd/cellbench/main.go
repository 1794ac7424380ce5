// Command cellbench runs the paper's single-node "raw" experiments
// (Figures 2 and 6): the potential of the Cell-accelerated kernels
// with no distributed middleware involved. It reports the calibrated
// model's numbers and, with -live, also executes the kernel for real
// on the functional Cell model to verify correctness and show the DMA
// traffic.
//
//	cellbench -workload enc -size 64
//	cellbench -workload pi -samples 100000000
//	cellbench -workload enc -size 1 -live
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hetmr/internal/cellbe"
	"hetmr/internal/cellmr"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
	"hetmr/internal/spurt"
)

func main() {
	workload := flag.String("workload", "enc", "enc or pi")
	sizeMB := flag.Int64("size", 64, "working set size in MB (enc)")
	samples := flag.Int64("samples", 1e8, "sample count (pi)")
	live := flag.Bool("live", false, "also execute the kernel for real on the functional Cell model")
	flag.Parse()

	switch *workload {
	case "enc":
		encBench(*sizeMB, *live)
	case "pi":
		piBench(*samples, *live)
	default:
		fmt.Fprintf(os.Stderr, "cellbench: unknown workload %q (enc|pi)\n", *workload)
		os.Exit(2)
	}
}

func encBench(sizeMB int64, live bool) {
	bytesN := sizeMB << 20
	fmt.Printf("AES-128 encryption of %d MB — modelled single-node configurations:\n\n", sizeMB)
	direct := cellbe.StreamOffloadTime(bytesN, perfmodel.SPEsPerCell,
		perfmodel.SPEBlockBytes, perfmodel.AESSPEBytesPerSec)
	chip := cellbe.NewChip(0)
	fw, err := cellmr.New(chip, perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
	if err != nil {
		log.Fatal(err)
	}
	rows := []struct {
		name string
		sec  float64
	}{
		{"Cell BE (direct SPE runtime)", direct.TotalSeconds},
		{"MapReduce Cell (framework)", fw.EstimateStreamTime(bytesN, perfmodel.AESSPEBytesPerSec)},
		{"PPC (Java on Cell PPE)", cellbe.HostComputeTime(bytesN, perfmodel.AESPPEBytesPerSec)},
		{"Power 6 (Java)", cellbe.HostComputeTime(bytesN, perfmodel.AESPower6BytesPerSec)},
	}
	for _, r := range rows {
		fmt.Printf("  %-32s %6.2f MB/s  (%.3f s)\n",
			r.name, float64(bytesN)/(1<<20)/r.sec, r.sec)
	}
	fmt.Printf("\n  direct offload breakdown: init %.1f ms, compute %.3f s, DMA %.3f s (overlapped)\n",
		direct.InitSeconds*1e3, direct.ComputeSeconds, direct.DMASeconds)

	if !live {
		return
	}
	if sizeMB > 64 {
		log.Fatal("cellbench: -live supports sizes up to 64 MB")
	}
	fmt.Println("\nlive functional run (real AES through the Cell MapReduce framework):")
	key := []byte("cellbench-aeskey")
	iv := make([]byte, 16)
	input := make([]byte, bytesN)
	for i := range input {
		input[i] = byte(i * 31)
	}
	cipher, err := kernels.NewCipher(key)
	if err != nil {
		log.Fatal(err)
	}
	// The framework configuration of the figure above: PPE staging
	// copy, then SPE workers streaming the staged blocks.
	out := make([]byte, bytesN)
	start := time.Now()
	if err := fw.RunStream(kernels.CTRBlockFuncFast(cipher, iv), input, out); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	want := make([]byte, bytesN)
	kernels.CTRStream(cipher, iv, 0, want, input)
	if !bytes.Equal(out, want) {
		log.Fatal("cellbench: SPE output does not match sequential reference")
	}
	fmt.Printf("  %d bytes staged by the PPE copy and encrypted on %d SPE workers in %v, output verified against sequential AES\n",
		fw.StagedBytes(), perfmodel.SPEsPerCell, elapsed.Round(time.Millisecond))
}

func piBench(samples int64, live bool) {
	fmt.Printf("Monte Carlo Pi estimation, %d samples — modelled single-node configurations:\n\n", samples)
	cell := cellbe.ComputeOffloadTime(samples, perfmodel.SPEsPerCell, perfmodel.PiSPESamplesPerSec)
	rows := []struct {
		name string
		sec  float64
	}{
		{"Cell BE (8 SPEs)", cell.TotalSeconds},
		{"PPC (Java on Cell PPE)", cellbe.HostComputeTime(samples, perfmodel.PiPPESamplesPerSec)},
		{"Power 6 (Java)", cellbe.HostComputeTime(samples, perfmodel.PiPower6SamplesPerSec)},
	}
	for _, r := range rows {
		fmt.Printf("  %-26s %12.0f samples/s  (%.4f s)\n", r.name, float64(samples)/r.sec, r.sec)
	}
	fmt.Printf("\n  expected estimate error O(1/sqrt(N)) = %.2e\n", kernels.PiErrorBound(samples))

	if !live {
		return
	}
	if samples > 2e8 {
		log.Fatal("cellbench: -live supports up to 2e8 samples")
	}
	rt, err := spurt.New(cellbe.NewChip(0), perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
	if err != nil {
		log.Fatal(err)
	}
	per := samples / int64(perfmodel.SPEsPerCell)
	results, err := rt.Compute(kernels.PiWorkerFunc(2009, per))
	if err != nil {
		log.Fatal(err)
	}
	var inside, total int64
	for _, r := range results {
		inside += r.Value
		total += per
	}
	fmt.Printf("\nlive functional run: pi = %.6f from %d real samples on 8 SPE workers\n",
		kernels.EstimatePi(inside, total), total)
}
