package spurt

import (
	"bytes"
	"errors"
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
