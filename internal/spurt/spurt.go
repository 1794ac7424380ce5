// Package spurt (SPU RunTime) is the paper's first native library:
// "a simple runtime that allows us to divide and execute task on the
// SPUs". It carves an input buffer into fixed-size blocks (4 KB in the
// paper's distributed experiments), streams them through the SPEs with
// double-buffered DMA, and runs a block kernel on each — the direct,
// pthread-style offload path that reaches ~700 MB/s of AES throughput
// in Figure 2. Every data offload in the tree, the cellmr framework's
// included, goes through its one claim-and-DMA loop: Stream transforms
// fixed blocks in place, Scan reads caller-carved spans.
package spurt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hetmr/internal/cellbe"
	"hetmr/internal/perfmodel"
)

// BlockKernel is the user-supplied computation applied to each block.
// The block slice is local-store-backed and must be processed in
// place; offset is the block's byte offset within the whole input, so
// kernels like CTR encryption can be position-aware.
type BlockKernel interface {
	// Name identifies the kernel in diagnostics.
	Name() string
	// ProcessBlock transforms block in place.
	ProcessBlock(block []byte, offset int64) error
}

// KernelFunc adapts a function to the BlockKernel interface.
type KernelFunc struct {
	KernelName string
	Fn         func(block []byte, offset int64) error
}

// Name implements BlockKernel.
func (k KernelFunc) Name() string { return k.KernelName }

// ProcessBlock implements BlockKernel.
func (k KernelFunc) ProcessBlock(block []byte, offset int64) error {
	return k.Fn(block, offset)
}

// Runtime schedules block work onto a Cell chip's SPEs.
type Runtime struct {
	chip       *cellbe.Chip
	nSPEs      int
	blockBytes int
}

// New creates a runtime using nSPEs of the chip and the given block
// size. Block size must fit the double-buffering budget of a 256 KB
// local store and be 16-byte aligned (DMA alignment).
func New(chip *cellbe.Chip, nSPEs, blockBytes int) (*Runtime, error) {
	if chip == nil {
		return nil, errors.New("spurt: nil chip")
	}
	if nSPEs <= 0 || nSPEs > len(chip.SPEs) {
		return nil, fmt.Errorf("spurt: %d SPEs requested, chip has %d", nSPEs, len(chip.SPEs))
	}
	if blockBytes <= 0 || blockBytes%perfmodel.DMAAlignment != 0 {
		return nil, fmt.Errorf("spurt: block size %d must be positive and 16-byte aligned", blockBytes)
	}
	// Two in-flight buffers per SPE plus kernel scratch must fit.
	if 2*blockBytes > perfmodel.LocalStoreBytes/2 {
		return nil, fmt.Errorf("spurt: block size %d too large for double buffering in a %d-byte local store",
			blockBytes, perfmodel.LocalStoreBytes)
	}
	return &Runtime{chip: chip, nSPEs: nSPEs, blockBytes: blockBytes}, nil
}

// BlockBytes returns the configured block size.
func (r *Runtime) BlockBytes() int { return r.blockBytes }

// NSPEs returns the number of SPEs in use.
func (r *Runtime) NSPEs() int { return r.nSPEs }

// Span is the half-open byte range [Start, End) of one unit of
// offload work within an input.
type Span struct{ Start, End int }

// Stream runs kernel over input, writing transformed blocks to output
// (which must be at least len(input) bytes). Blocks are distributed
// dynamically: each SPE grabs the next unprocessed block, double
// buffering DMA-in of block i+1 with compute on block i.
func (r *Runtime) Stream(kernel BlockKernel, input, output []byte) error {
	if len(output) < len(input) {
		return fmt.Errorf("spurt: output %d bytes < input %d bytes", len(output), len(input))
	}
	b := r.blockBytes
	nBlocks := (len(input) + b - 1) / b
	block := func(i int) Span { return Span{i * b, min((i+1)*b, len(input))} }
	return r.offload(input, nBlocks, b, block, func(spe *cellbe.SPE, _ int, buf *cellbe.LSBuffer, s Span) error {
		if err := kernel.ProcessBlock(buf.Bytes()[:s.End-s.Start], int64(s.Start)); err != nil {
			return fmt.Errorf("spurt: kernel %q block %d: %w", kernel.Name(), s.Start/b, err)
		}
		if err := spe.MFC.PutLarge(buf, 0, output[s.Start:s.End], tagPut); err != nil {
			return fmt.Errorf("spurt: %v: put block %d: %w", spe, s.Start/b, err)
		}
		spe.MFC.WaitTag(tagPut)
		return nil
	})
}

// Scan runs visit, read-only, over each span of input on the SPEs.
// Spans are claimed dynamically and DMA'd double-buffered into
// bufBytes local-store buffers, so no span may be longer than
// bufBytes. worker is below min(NSPEs(), len(spans)) and fixed for
// all the spans one SPE claims, so per-worker state needs no lock.
// block is local-store resident and valid only for the call.
func (r *Runtime) Scan(input []byte, spans []Span, bufBytes int, visit func(worker int, block []byte) error) error {
	span := func(i int) Span { return spans[i] }
	return r.offload(input, len(spans), bufBytes, span, func(_ *cellbe.SPE, worker int, buf *cellbe.LSBuffer, s Span) error {
		return visit(worker, buf.Bytes()[:s.End-s.Start])
	})
}

// tagPut is the MFC tag group of Stream's DMA-out; the two input
// buffers use tags 0 and 1.
const tagPut = 2

// offload is the one SPE work loop behind Stream and Scan. Each of
// min(nSPEs, nSpans) SPEs allocates two bufBytes local-store buffers
// and claims spans from a shared counter, issuing the DMA-in of its
// next span before computing on the current one (double buffering).
// visit runs on the resident span and must finish any DMA it issues.
// Whatever the outcome, each SPE drains its MFC and frees both buffers
// before the session returns, so a failed offload leaves the chip
// reusable.
func (r *Runtime) offload(input []byte, nSpans, bufBytes int, span func(i int) Span,
	visit func(spe *cellbe.SPE, worker int, buf *cellbe.LSBuffer, s Span) error) error {
	if nSpans == 0 {
		return nil
	}
	var next atomic.Int64
	return r.chip.RunOnSPEs(min(r.nSPEs, nSpans), func(spe *cellbe.SPE, worker int) error {
		var bufs [2]*cellbe.LSBuffer // bufs[i] fills under MFC tag i
		for i := range bufs {
			buf, err := spe.LS.Alloc(bufBytes)
			if err != nil {
				return fmt.Errorf("spurt: %v: %w", spe, err)
			}
			defer spe.LS.Free(buf)
			bufs[i] = buf
		}
		defer spe.MFC.WaitAll() // before the frees: no DMA outlives its buffer
		// fetch claims the next span and issues its DMA into bufs[tag].
		fetch := func(tag int) (Span, bool, error) {
			i := int(next.Add(1)) - 1
			if i >= nSpans {
				return Span{}, false, nil
			}
			s := span(i)
			if err := spe.MFC.GetLarge(bufs[tag], 0, input[s.Start:s.End], tag); err != nil {
				return Span{}, false, fmt.Errorf("spurt: %v: get span %d: %w", spe, i, err)
			}
			return s, true, nil
		}
		s, ok, err := fetch(0)
		for cur := 0; ok && err == nil; cur = 1 - cur {
			var nxt Span
			var more bool
			if nxt, more, err = fetch(1 - cur); err != nil {
				break
			}
			spe.MFC.WaitTag(cur)
			err = visit(spe, worker, bufs[cur], s)
			s, ok = nxt, more
		}
		return err
	})
}

// ComputeResult is one worker's output from a Compute offload.
type ComputeResult struct {
	Worker int
	Value  int64
}

// Compute runs a pure-compute task (no data streaming, e.g. Monte
// Carlo sampling) split across the SPEs. fn receives the worker index
// and returns the worker's partial result; results are collected in
// worker order.
func (r *Runtime) Compute(fn func(worker int) (int64, error)) ([]ComputeResult, error) {
	results := make([]ComputeResult, r.nSPEs)
	var mu sync.Mutex
	err := r.chip.RunOnSPEs(r.nSPEs, func(spe *cellbe.SPE, worker int) error {
		v, err := fn(worker)
		if err != nil {
			return err
		}
		mu.Lock()
		results[worker] = ComputeResult{Worker: worker, Value: v}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
