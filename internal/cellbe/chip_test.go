package cellbe

import (
	"errors"
	"sync/atomic"
	"testing"

	"hetmr/internal/perfmodel"
)

func TestNewChipArchitecture(t *testing.T) {
	c := NewChip(0)
	if len(c.SPEs) != perfmodel.SPEsPerCell {
		t.Fatalf("chip has %d SPEs, want %d", len(c.SPEs), perfmodel.SPEsPerCell)
	}
	for i, spe := range c.SPEs {
		if spe.ID != i {
			t.Errorf("SPE %d has ID %d", i, spe.ID)
		}
		if spe.LS.Size() != perfmodel.LocalStoreBytes {
			t.Errorf("SPE %d local store size %d", i, spe.LS.Size())
		}
		if spe.String() == "" {
			t.Error("SPE String empty")
		}
	}
}

func TestRunOnSPEsParallel(t *testing.T) {
	c := NewChip(0)
	var ran int64
	seen := make([]int64, 8)
	err := c.RunOnSPEs(8, func(spe *SPE, worker int) error {
		atomic.AddInt64(&ran, 1)
		atomic.AddInt64(&seen[spe.ID], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 8 {
		t.Errorf("ran %d kernels, want 8", ran)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("SPE %d ran %d times", id, n)
		}
	}
}

func TestRunOnSPEsErrorPropagation(t *testing.T) {
	c := NewChip(0)
	boom := errors.New("kernel fault")
	err := c.RunOnSPEs(4, func(spe *SPE, worker int) error {
		if worker == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want kernel fault", err)
	}
}

func TestRunOnSPEsBadCount(t *testing.T) {
	c := NewChip(0)
	for _, n := range []int{0, -1, 9} {
		if err := c.RunOnSPEs(n, func(*SPE, int) error { return nil }); err == nil {
			t.Errorf("RunOnSPEs(%d) should fail", n)
		}
	}
}

func TestChipDMATotal(t *testing.T) {
	c := NewChip(0)
	src := make([]byte, 1024)
	err := c.RunOnSPEs(2, func(spe *SPE, worker int) error {
		buf, err := spe.LS.Alloc(1024)
		if err != nil {
			return err
		}
		defer spe.LS.Free(buf)
		if err := spe.MFC.Get(buf, 0, src, 0); err != nil {
			return err
		}
		spe.MFC.WaitTag(0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalDMABytes(); got != 2048 {
		t.Errorf("TotalDMABytes = %d, want 2048", got)
	}
}

func TestStreamOffloadTimeShape(t *testing.T) {
	// Larger inputs amortize init: effective bandwidth must increase
	// with size and approach the asymptote (Fig. 2's rising curves).
	rate := perfmodel.AESSPEBytesPerSec
	small := StreamOffloadTime(1<<20, 8, perfmodel.SPEBlockBytes, rate)
	large := StreamOffloadTime(1<<30, 8, perfmodel.SPEBlockBytes, rate)
	bwSmall := float64(1<<20) / small.TotalSeconds
	bwLarge := float64(1<<30) / large.TotalSeconds
	if bwLarge <= bwSmall {
		t.Errorf("bandwidth should rise with size: %g vs %g", bwSmall, bwLarge)
	}
	asymptote := perfmodel.AESCellBytesPerSec
	if bwLarge < 0.85*asymptote || bwLarge > asymptote {
		t.Errorf("large-input bandwidth %g should approach %g", bwLarge, asymptote)
	}
	if small.TotalSeconds < small.InitSeconds {
		t.Error("total below init cost")
	}
}

func TestComputeOffloadTimeShape(t *testing.T) {
	rate := perfmodel.PiSPESamplesPerSec
	small := ComputeOffloadTime(1000, 8, rate)
	// 1000 samples: dominated by init overhead (Fig. 6 low end).
	if small.ComputeSeconds > small.InitSeconds {
		t.Error("small problem should be init-dominated")
	}
	big := ComputeOffloadTime(1e9, 8, rate)
	if big.ComputeSeconds < 10*big.InitSeconds {
		t.Error("large problem should be compute-dominated")
	}
	wantCompute := 1e9 / (rate * 8)
	if diff := big.ComputeSeconds - wantCompute; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("compute = %g, want %g", big.ComputeSeconds, wantCompute)
	}
}

func TestOffloadDegenerateInputs(t *testing.T) {
	c := StreamOffloadTime(0, 8, 4096, 1e6)
	if c.TotalSeconds != perfmodel.SPUOffloadInitSeconds {
		t.Errorf("zero bytes: total = %g", c.TotalSeconds)
	}
	c = ComputeOffloadTime(-5, 8, 1e6)
	if c.TotalSeconds != perfmodel.SPUOffloadInitSeconds {
		t.Errorf("negative work: total = %g", c.TotalSeconds)
	}
	if HostComputeTime(0, 1e6) <= 0 {
		t.Error("host compute of zero work should still cost warmup")
	}
	if HostComputeTime(1e6, 1e6) < 1.0 {
		t.Error("1e6 units at 1e6/s should take at least 1s")
	}
}
