package spurt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hetmr/internal/cellbe"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
)

func newRuntime(t testing.TB, nSPEs, block int) *Runtime {
	t.Helper()
	r, err := New(cellbe.NewChip(0), nSPEs, block)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	chip := cellbe.NewChip(0)
	cases := []struct {
		nSPEs, block int
	}{
		{0, 4096}, {9, 4096}, {4, 0}, {4, -16}, {4, 100}, // unaligned
		{4, perfmodel.LocalStoreBytes}, // too big to double buffer
	}
	for _, c := range cases {
		if _, err := New(chip, c.nSPEs, c.block); err == nil {
			t.Errorf("New(%d SPEs, %d block) should fail", c.nSPEs, c.block)
		}
	}
	if _, err := New(nil, 4, 4096); err == nil {
		t.Error("nil chip should fail")
	}
	r, err := New(chip, 8, perfmodel.SPEBlockBytes)
	if err != nil {
		t.Fatal(err)
	}
	if r.NSPEs() != 8 || r.BlockBytes() != perfmodel.SPEBlockBytes {
		t.Error("accessors wrong")
	}
}

func TestStreamIdentityKernel(t *testing.T) {
	r := newRuntime(t, 8, 4096)
	input := make([]byte, 100000) // not a block multiple
	for i := range input {
		input[i] = byte(i * 13)
	}
	output := make([]byte, len(input))
	id := KernelFunc{KernelName: "identity", Fn: func([]byte, int64) error { return nil }}
	if err := r.Stream(id, input, output); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(output, input) {
		t.Fatal("identity stream corrupted data")
	}
}

func TestStreamAESMatchesSequential(t *testing.T) {
	// The SPE-parallel CTR encryption must equal a single sequential
	// CTR pass: this is the correctness claim behind using 4KB blocks.
	c, err := kernels.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	iv := []byte("abcdefgh01234567")
	input := make([]byte, 70000)
	for i := range input {
		input[i] = byte(i)
	}
	want := make([]byte, len(input))
	kernels.CTRStream(c, iv, 0, want, input)

	r := newRuntime(t, 8, perfmodel.SPEBlockBytes)
	got := make([]byte, len(input))
	kern := KernelFunc{KernelName: "aes-ctr", Fn: kernels.CTRBlockFunc(c, iv)}
	if err := r.Stream(kern, input, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SPE-parallel CTR differs from sequential CTR")
	}
}

func TestStreamUsesDMA(t *testing.T) {
	chip := cellbe.NewChip(0)
	r, err := New(chip, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 64*1024)
	output := make([]byte, len(input))
	id := KernelFunc{KernelName: "id", Fn: func([]byte, int64) error { return nil }}
	if err := r.Stream(id, input, output); err != nil {
		t.Fatal(err)
	}
	// Every byte must cross the MFC twice (in and out).
	if got, want := chip.TotalDMABytes(), int64(2*len(input)); got != want {
		t.Errorf("DMA bytes = %d, want %d", got, want)
	}
}

func TestStreamEmptyAndErrors(t *testing.T) {
	r := newRuntime(t, 2, 4096)
	id := KernelFunc{KernelName: "id", Fn: func([]byte, int64) error { return nil }}
	if err := r.Stream(id, nil, nil); err != nil {
		t.Errorf("empty input: %v", err)
	}
	if err := r.Stream(id, make([]byte, 10), make([]byte, 5)); err == nil {
		t.Error("short output should fail")
	}
	boom := errors.New("kernel fault")
	bad := KernelFunc{KernelName: "bad", Fn: func([]byte, int64) error { return boom }}
	if err := r.Stream(bad, make([]byte, 8192), make([]byte, 8192)); !errors.Is(err, boom) {
		t.Errorf("kernel error not propagated: %v", err)
	}
}

func TestStreamOffsetsSeenOnce(t *testing.T) {
	// Every block offset is processed exactly once across all SPEs.
	r := newRuntime(t, 8, 1024)
	const n = 64 * 1024
	seen := make([]int32, n/1024)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	kern := KernelFunc{KernelName: "mark", Fn: func(block []byte, off int64) error {
		<-mu
		seen[off/1024]++
		mu <- struct{}{}
		return nil
	}}
	if err := r.Stream(kern, make([]byte, n), make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("block %d processed %d times", i, c)
		}
	}
}

// Property: for random input sizes and SPE counts, streaming a
// byte-increment kernel yields input+1 everywhere.
func TestStreamIncrementProperty(t *testing.T) {
	f := func(sizeRaw uint16, spesRaw, blkRaw uint8) bool {
		size := int(sizeRaw) % 50000
		nSPEs := int(spesRaw)%8 + 1
		block := (int(blkRaw)%8 + 1) * 512
		r, err := New(cellbe.NewChip(0), nSPEs, block)
		if err != nil {
			return false
		}
		input := make([]byte, size)
		for i := range input {
			input[i] = byte(i)
		}
		output := make([]byte, size)
		inc := KernelFunc{KernelName: "inc", Fn: func(b []byte, _ int64) error {
			for i := range b {
				b[i]++
			}
			return nil
		}}
		if err := r.Stream(inc, input, output); err != nil {
			return false
		}
		for i := range output {
			if output[i] != byte(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestComputePi(t *testing.T) {
	r := newRuntime(t, 8, 4096)
	const perWorker = 100000
	results, err := r.Compute(kernels.PiWorkerFunc(7, perWorker))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	var inside, total int64
	for i, res := range results {
		if res.Worker != i {
			t.Errorf("result %d has worker %d", i, res.Worker)
		}
		inside += res.Value
		total += perWorker
	}
	pi := kernels.EstimatePi(inside, total)
	if pi < 3.10 || pi > 3.18 {
		t.Errorf("pi estimate %g out of range", pi)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	r := newRuntime(t, 4, 4096)
	boom := errors.New("spe crash")
	_, err := r.Compute(func(worker int) (int64, error) {
		if worker == 3 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v", err)
	}
}

// indexed returns n bytes (n a multiple of 4) whose 4-byte groups hold
// their own group index, so any 4-aligned block names its offset.
func indexed(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 4 {
		binary.LittleEndian.PutUint32(b[i:], uint32(i/4))
	}
	return b
}

// carve cuts n bytes into 4-aligned spans of 4..maxLen bytes.
func carve(n, maxLen int, rng *rand.Rand) []Span {
	var spans []Span
	for start := 0; start < n; {
		end := min(start+4*(1+rng.Intn(maxLen/4)), n)
		spans = append(spans, Span{start, end})
		start = end
	}
	return spans
}

// offloadMode drives the shared SPE loop through one of its two entry
// points; visit sees each resident block with the worker that holds it
// (-1 where Stream does not say).
type offloadMode struct {
	name string
	run  func(r *Runtime, input []byte, spans []Span, visit func(worker int, block []byte) error) error
}

var offloadModes = []offloadMode{
	{"stream", func(r *Runtime, input []byte, _ []Span, visit func(int, []byte) error) error {
		k := KernelFunc{KernelName: "visit", Fn: func(block []byte, _ int64) error { return visit(-1, block) }}
		return r.Stream(k, input, make([]byte, len(input)))
	}},
	{"scan", func(r *Runtime, input []byte, spans []Span, visit func(int, []byte) error) error {
		return r.Scan(input, spans, r.BlockBytes(), visit)
	}},
}

// assertChipIdle checks every SPE's local store is fully free and its
// MFC queue empty: the loop cleaned up whatever the outcome.
func assertChipIdle(t *testing.T, chip *cellbe.Chip) {
	t.Helper()
	for _, spe := range chip.SPEs {
		if free := spe.LS.FreeBytes(); free != spe.LS.Size() {
			t.Errorf("%v: %d of %d local-store bytes free", spe, free, spe.LS.Size())
		}
		if n := spe.MFC.Outstanding(); n != 0 {
			t.Errorf("%v: %d DMA requests outstanding", spe, n)
		}
	}
}

func TestOffloadLoopCoversInputOnce(t *testing.T) {
	cases := []struct {
		name         string
		nSPEs, block int
		size         int
	}{
		{"many spans", 8, 1024, 50000},
		{"more SPEs than spans", 8, 1024, 2048},
		{"one short span", 3, 1024, 12},
		{"one SPE", 1, 512, 9000},
		{"empty input", 4, 1024, 0},
	}
	for _, mode := range offloadModes {
		for _, c := range cases {
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				chip := cellbe.NewChip(0)
				r, err := New(chip, c.nSPEs, c.block)
				if err != nil {
					t.Fatal(err)
				}
				input := indexed(c.size)
				spans := carve(c.size, c.block, rand.New(rand.NewSource(int64(c.size))))
				nUnits := len(spans)
				if mode.name == "stream" {
					nUnits = (c.size + c.block - 1) / c.block
				}
				seen := make([]int32, c.size)
				var mu sync.Mutex
				err = mode.run(r, input, spans, func(worker int, block []byte) error {
					if worker >= min(c.nSPEs, nUnits) {
						return fmt.Errorf("worker %d of %d SPEs and %d spans", worker, c.nSPEs, nUnits)
					}
					off := 4 * int(binary.LittleEndian.Uint32(block))
					mu.Lock()
					defer mu.Unlock()
					for i := range block {
						if block[i] != input[off+i] {
							return fmt.Errorf("byte %d: got %d, want %d", off+i, block[i], input[off+i])
						}
						seen[off+i]++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range seen {
					if n != 1 {
						t.Fatalf("byte %d reached a worker %d times", i, n)
					}
				}
				assertChipIdle(t, chip)
			})
		}
	}
}

func TestOffloadLoopKernelErrorFreesChip(t *testing.T) {
	boom := errors.New("kernel fault")
	for _, mode := range offloadModes {
		t.Run(mode.name, func(t *testing.T) {
			chip := cellbe.NewChip(0)
			r, err := New(chip, 4, 1024)
			if err != nil {
				t.Fatal(err)
			}
			input := indexed(64 * 1024)
			spans := carve(len(input), 1024, rand.New(rand.NewSource(1)))
			var calls atomic.Int32
			err = mode.run(r, input, spans, func(int, []byte) error {
				if calls.Add(1) == 5 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the kernel's", err)
			}
			assertChipIdle(t, chip)
			// The chip is reusable after the failed session.
			if err := mode.run(r, input, spans, func(int, []byte) error { return nil }); err != nil {
				t.Fatalf("rerun after failure: %v", err)
			}
			assertChipIdle(t, chip)
		})
	}
}

func TestScanSpanLongerThanBufferFails(t *testing.T) {
	chip := cellbe.NewChip(0)
	r, err := New(chip, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 4096)
	err = r.Scan(input, []Span{{0, 1024}, {1024, 4096}}, 1024, func(int, []byte) error { return nil })
	if err == nil {
		t.Fatal("a span longer than the buffer should fail the scan")
	}
	assertChipIdle(t, chip)
}
