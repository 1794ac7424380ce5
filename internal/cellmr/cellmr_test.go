package cellmr

import (
	"bytes"
	"testing"

	"hetmr/internal/cellbe"
	"hetmr/internal/kernels"
	"hetmr/internal/perfmodel"
)

func newFW(t testing.TB, nSPEs, block int) *Framework {
	t.Helper()
	f, err := New(cellbe.NewChip(0), nSPEs, block)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	chip := cellbe.NewChip(0)
	bad := []struct{ n, b int }{
		{0, 4096}, {9, 4096}, {4, 0}, {4, 100}, {4, perfmodel.LocalStoreBytes},
	}
	for _, c := range bad {
		if _, err := New(chip, c.n, c.b); err == nil {
			t.Errorf("New(%d,%d) should fail", c.n, c.b)
		}
	}
	if _, err := New(nil, 4, 4096); err == nil {
		t.Error("nil chip should fail")
	}
}

func TestRunStreamAES(t *testing.T) {
	c, _ := kernels.NewCipher([]byte("fedcba9876543210"))
	iv := []byte("0123456789abcdef")
	input := make([]byte, 33000)
	for i := range input {
		input[i] = byte(i * 3)
	}
	want := make([]byte, len(input))
	kernels.CTRStream(c, iv, 0, want, input)

	f := newFW(t, 8, perfmodel.SPEBlockBytes)
	got := make([]byte, len(input))
	if err := f.RunStream(kernels.CTRBlockFunc(c, iv), input, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("framework stream differs from sequential CTR")
	}
	if f.StagedBytes() != int64(len(input)) {
		t.Error("staging copy not accounted")
	}
}

func TestRunStreamShortOutput(t *testing.T) {
	f := newFW(t, 2, 4096)
	if err := f.RunStream(func([]byte, int64) error { return nil },
		make([]byte, 10), make([]byte, 5)); err == nil {
		t.Error("short output should fail")
	}
}

func TestEstimateStreamTimeSlowerThanDirect(t *testing.T) {
	// Fig. 2's ordering: the framework must be slower than the direct
	// runtime (staging copy + init) but still far faster than the
	// host CPUs at scale.
	f := newFW(t, 8, perfmodel.SPEBlockBytes)
	const size = 256 << 20
	fw := f.EstimateStreamTime(size, perfmodel.AESSPEBytesPerSec)
	direct := cellbe.StreamOffloadTime(size, 8, perfmodel.SPEBlockBytes, perfmodel.AESSPEBytesPerSec).TotalSeconds
	if fw <= direct {
		t.Errorf("framework (%g s) should be slower than direct (%g s)", fw, direct)
	}
	power6 := float64(size) / perfmodel.AESPower6BytesPerSec
	if fw >= power6 {
		t.Errorf("framework (%g s) should still beat Power6 Java (%g s)", fw, power6)
	}
}
