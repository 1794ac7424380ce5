// Package cellmr is a node-level MapReduce framework for the Cell BE,
// modelled on de Kruijf & Sankaralingam's "MapReduce for the Cell B.E.
// Architecture" (UW-Madison TR1625), the second native library in the
// paper's prototype (§III-B). Its defining behaviour — and the reason
// it loses to the direct spurt runtime in Figure 2 — is that the PPE
// must first copy the application's input into framework-managed,
// aligned buffers before SPEs can map over it: "the original input
// data must be copied again to internal buffers managed by the
// framework".
//
// That staging copy is all the framework adds: RunStream copies the
// input, then streams the copy through the SPEs on the spurt runtime,
// the same block loop the direct path uses. EstimateStreamTime charges
// the copy and the framework's start-up on top of spurt's offload
// model, which is the "MapReduce Cell" curve of Figure 2.
package cellmr

import (
	"fmt"

	"hetmr/internal/cellbe"
	"hetmr/internal/perfmodel"
	"hetmr/internal/spurt"
)

// Framework is one Cell chip's MapReduce runtime instance.
type Framework struct {
	rt          *spurt.Runtime
	stagedBytes int64
}

// New creates a framework on the chip using nSPEs workers and the
// given input block size; the limits are spurt.New's.
func New(chip *cellbe.Chip, nSPEs, blockBytes int) (*Framework, error) {
	rt, err := spurt.New(chip, nSPEs, blockBytes)
	if err != nil {
		return nil, fmt.Errorf("cellmr: %w", err)
	}
	return &Framework{rt: rt}, nil
}

// StagedBytes reports how many input bytes the PPE staging copy has
// moved (the framework's signature overhead).
func (f *Framework) StagedBytes() int64 { return f.stagedBytes }

// RunStream executes a pure block-transform through the framework:
// input is staged (the PPE copy), transformed block-by-block on the
// SPEs, and written to output. This is the mode the paper's
// single-node AES experiment uses for the "MapReduce Cell"
// configuration of Figure 2.
func (f *Framework) RunStream(kernel func(block []byte, offset int64) error, input, output []byte) error {
	if len(output) < len(input) {
		return fmt.Errorf("cellmr: output %d bytes < input %d bytes", len(output), len(input))
	}
	staged := make([]byte, len(input))
	copy(staged, input) // the PPE memcpy the paper calls out
	f.stagedBytes += int64(len(input))
	return f.rt.Stream(spurt.KernelFunc{KernelName: "cellmr", Fn: kernel}, staged, output)
}

// EstimateStreamTime models RunStream's wall time: framework init,
// the PPE staging copy, then the SPE streaming pipeline. This is the
// "MapReduce Cell" curve of Figure 2.
func (f *Framework) EstimateStreamTime(bytes int64, perSPERate float64) float64 {
	stagingCopy := float64(bytes) / perfmodel.CellMRStagingBytesPerSec
	stream := cellbe.StreamOffloadTime(bytes, f.rt.NSPEs(), f.rt.BlockBytes(), perSPERate)
	return perfmodel.CellMRFrameworkInitSeconds + stagingCopy + stream.TotalSeconds
}
