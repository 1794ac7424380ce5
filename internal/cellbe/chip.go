package cellbe

import (
	"fmt"
	"sync"

	"hetmr/internal/perfmodel"
)

// SPE is one Synergistic Processing Element: an ID, a private local
// store and an MFC. Kernels run on SPEs via Chip.RunOnSPEs and may only
// touch main memory through the MFC.
type SPE struct {
	ID    int
	LS    *LocalStore
	MFC   *MFC
	chipN int // chip index, for diagnostics
}

// String identifies the SPE for diagnostics.
func (s *SPE) String() string { return fmt.Sprintf("cell%d/spe%d", s.chipN, s.ID) }

// Kernel is code executed on one SPE. Kernels receive their SPE (for
// local store and DMA) and a worker index within the offload session.
type Kernel func(spe *SPE, worker int) error

// Chip is one Cell BE processor: a PPE (implicit: the caller's
// goroutine plays the PPE role) plus eight SPEs.
type Chip struct {
	Index int
	SPEs  []*SPE

	// mu serializes offload sessions: SPE contexts are exclusively
	// owned while a kernel group runs, so concurrent RunOnSPEs calls
	// from different host threads queue, as on real hardware.
	mu sync.Mutex
}

// NewChip builds a Cell BE chip model with the architectural SPE count
// and local store size.
func NewChip(index int) *Chip {
	c := &Chip{Index: index}
	for i := 0; i < perfmodel.SPEsPerCell; i++ {
		c.SPEs = append(c.SPEs, &SPE{
			ID:    i,
			LS:    NewLocalStore(perfmodel.LocalStoreBytes),
			MFC:   &MFC{},
			chipN: index,
		})
	}
	return c
}

// RunOnSPEs executes kernel concurrently on n SPEs (n<=8) and waits
// for all of them, returning the first error. This is the live
// execution path: each SPE runs on its own goroutine, like spe_context
// threads launched from the PPE.
func (c *Chip) RunOnSPEs(n int, kernel Kernel) error {
	if n <= 0 || n > len(c.SPEs) {
		return fmt.Errorf("cellbe: cannot run on %d SPEs (chip has %d)", n, len(c.SPEs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = kernel(c.SPEs[i], i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TotalDMABytes sums DMA traffic across all SPEs (both directions).
func (c *Chip) TotalDMABytes() int64 {
	var total int64
	for _, s := range c.SPEs {
		st := s.MFC.Stats()
		total += st.BytesToLS + st.BytesFromLS
	}
	return total
}
