package netmr

import (
	"errors"
	"fmt"
	"sync"

	"hetmr/internal/cellbe"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
	"hetmr/internal/rpcnet"
	"hetmr/internal/spurt"
)

// Device kinds a tracker reports on heartbeats and the JobTracker
// surfaces in StatusReply.Devices — the cluster's device profile, the
// paper's "nodes enabled with hardware accelerators and general
// purpose nodes".
const (
	// DeviceHost is a general-purpose node: every kernel runs the host
	// (Java-path) implementation.
	DeviceHost = "host"
	// DeviceCell is an accelerator-equipped node: one Cell BE chip,
	// driven through the spurt runtime, runs map work for kernels with
	// an accelerated variant.
	DeviceCell = "cell"
)

// Mapper variants a JobSpec may request for its map tasks.
const (
	// MapperCell (the default) offloads map work to the tracker's
	// accelerator where the node has one and the kernel has an
	// accelerated variant; everywhere else the host path runs — the
	// fallback is bit-identical, so partial acceleration is purely a
	// performance choice.
	MapperCell = "cell"
	// MapperJava pins every map task to the host path.
	MapperJava = "java"
)

// errAccelFallback is returned by an accelerated kernel variant that
// declines its input (e.g. a word longer than the local-store budget):
// the tracker runs the host path instead, keeping the result identical.
var errAccelFallback = errors.New("netmr: input unsuitable for the accelerator, host fallback")

// AccelDevice is one node's accelerator: a functional Cell BE chip
// (internal/cellbe) driven through the spurt runtime, the paper's
// direct offload path — Stream for block transforms, Compute for
// sampling, Scan for wordcount's read-only pass. A tracker whose
// Config.Devices entry is DeviceCell owns exactly one device; offload
// sessions on one chip serialize (cellbe.Chip holds its SPE contexts
// exclusively per session), exactly as concurrent map slots contended
// on the real hardware. The device owns one word table per SPE, which
// every word-count task reuses in turn.
type AccelDevice struct {
	rt      *spurt.Runtime
	wordsMu sync.Mutex          // held for a whole WordCount, lend included
	words   []kernels.WordTable // one per SPE
}

// NewCellDevice builds a per-node Cell accelerator: one chip, all
// eight SPEs, the paper's 4 KB SPE blocking.
func NewCellDevice() (*AccelDevice, error) {
	rt, err := spurt.New(cellbe.NewChip(0), perfmodel.SPEsPerCell, perfmodel.SPEBlockBytes)
	if err != nil {
		return nil, fmt.Errorf("netmr: accelerator runtime: %w", err)
	}
	return &AccelDevice{rt: rt, words: make([]kernels.WordTable, rt.NSPEs())}, nil
}

// Kind reports the device kind for heartbeats and status.
func (d *AccelDevice) Kind() string { return DeviceCell }

// CountInside offloads one Pi map task: the task's sample range is
// carved into one contiguous share per SPE and each SPE seeks into the
// exact splitmix64 stream (kernels.CountInsideFrom), so the summed
// tally is bit-identical to the host kernel's single sequential pass —
// the conformance contract that makes AccelFraction a pure performance
// knob.
func (d *AccelDevice) CountInside(seed uint64, samples int64) (int64, error) {
	if samples <= 0 {
		return 0, nil
	}
	n := int64(d.rt.NSPEs())
	per := samples / n
	rem := samples % n
	results, err := d.rt.Compute(func(worker int) (int64, error) {
		// Contiguous shares, earlier workers absorbing the remainder;
		// with fewer samples than SPEs the tail workers draw nothing.
		// Any contiguous split gives the same sum — the stream seek is
		// exact.
		w := int64(worker)
		lo := w * per
		cnt := per
		if w < rem {
			lo += w
			cnt++
		} else {
			lo += rem
		}
		return kernels.CountInsideFrom(seed, lo, cnt), nil
	})
	if err != nil {
		return 0, err
	}
	var inside int64
	for _, r := range results {
		inside += r.Value
	}
	return inside, nil
}

// CTRStream offloads one AES-CTR map task through the spurt streaming
// runtime: 4 KB blocks double-buffered through the SPE local stores,
// each encrypted position-aware at base+offset. CTR mode is seekable,
// so the ciphertext is bit-identical to the host path whatever the
// blocking. The ciphertext is an rpcnet.Borrow buffer, as the host
// path's is.
func (d *AccelDevice) CTRStream(c *kernels.Cipher, iv []byte, base int64, data []byte) ([]byte, error) {
	out := rpcnet.Borrow(len(data))
	ctr := kernels.CTRBlockFuncFast(c, iv)
	kern := spurt.KernelFunc{
		KernelName: "aes-ctr",
		Fn: func(block []byte, offset int64) error {
			return ctr(block, base+offset)
		},
	}
	if err := d.rt.Stream(kern, data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// wordCountSlack bounds how far past the nominal sub-block size a
// sub-block may grow while scanning for a word boundary. A single word
// longer than this declines the offload (errAccelFallback) instead of
// overrunning the local-store buffer.
const wordCountSlack = 1024

// WordCount offloads one wordcount map task: the block is carved into
// separator-aligned sub-blocks of roughly the SPE block size, and the
// spurt scan hands each SPE the sub-blocks it claims, resident in its
// local store, to add to its own table. Words never straddle a
// sub-block boundary and counting is a commutative fold, so the SPE
// tables merged into the first count exactly what one table over the
// whole block does. That table is lent to use until use returns: the
// next task resets the tables and counts in them again.
func (d *AccelDevice) WordCount(data []byte, use func(*kernels.WordTable) error) error {
	target := d.rt.BlockBytes()
	bufBytes := target + wordCountSlack
	// Carve at separators: extend each nominal boundary to the end of
	// the word it would split.
	var spans []spurt.Span
	for start := 0; start < len(data); {
		end := start + target
		if end >= len(data) {
			end = len(data)
		} else {
			for end < len(data) && kernels.IsWordByte(data[end]) {
				if end-start >= bufBytes {
					return errAccelFallback
				}
				end++
			}
		}
		spans = append(spans, spurt.Span{Start: start, End: end})
		start = end
	}
	d.wordsMu.Lock()
	defer d.wordsMu.Unlock()
	tables := d.words[:max(1, min(len(d.words), len(spans)))]
	for i := range tables {
		tables[i].Reset()
	}
	err := d.rt.Scan(data, spans, bufBytes, func(worker int, block []byte) error {
		tables[worker].Add(block)
		return nil
	})
	if err != nil {
		return fmt.Errorf("netmr: accel wordcount: %w", err)
	}
	for i := 1; i < len(tables); i++ {
		tables[0].Merge(&tables[i])
	}
	return use(&tables[0])
}
