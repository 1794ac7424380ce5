package cellbe

import (
	"errors"
	"testing"
	"testing/quick"

	"hetmr/internal/perfmodel"
)

func TestLocalStoreAllocAligned(t *testing.T) {
	ls := NewLocalStore(perfmodel.LocalStoreBytes)
	for _, size := range []int{1, 15, 16, 17, 4096, 100} {
		b, err := ls.Alloc(size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if b.Offset()%perfmodel.DMAAlignment != 0 {
			t.Errorf("Alloc(%d) offset %d not 16-byte aligned", size, b.Offset())
		}
		if b.Size() < size {
			t.Errorf("Alloc(%d) returned size %d", size, b.Size())
		}
		if len(b.Bytes()) != b.Size() {
			t.Errorf("Bytes() length %d != size %d", len(b.Bytes()), b.Size())
		}
	}
}

func TestLocalStoreExhaustion(t *testing.T) {
	ls := NewLocalStore(1024)
	a, err := ls.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("expected ErrNoSpace, got %v", err)
	}
	ls.Free(a)
	if ls.FreeBytes() != 1024 {
		t.Errorf("free bytes = %d after full free", ls.FreeBytes())
	}
}

func TestLocalStoreBadSize(t *testing.T) {
	ls := NewLocalStore(1024)
	for _, n := range []int{0, -5} {
		if _, err := ls.Alloc(n); !errors.Is(err, ErrBadSize) {
			t.Errorf("Alloc(%d): expected ErrBadSize, got %v", n, err)
		}
	}
}

func TestLocalStoreCoalescing(t *testing.T) {
	ls := NewLocalStore(4096)
	a, _ := ls.Alloc(1024)
	b, _ := ls.Alloc(1024)
	c, _ := ls.Alloc(1024)
	ls.Free(a)
	ls.Free(c)
	// Free list fragmented: a full-size alloc must fail, then freeing
	// b coalesces everything back into one span.
	if _, err := ls.Alloc(4096); err == nil {
		t.Fatal("alloc across fragmentation should fail")
	}
	ls.Free(b)
	d, err := ls.Alloc(4096)
	if err != nil {
		t.Fatalf("full-size alloc after coalesce: %v", err)
	}
	ls.Free(d)
}

func TestLocalStoreDoubleFreePanics(t *testing.T) {
	ls := NewLocalStore(1024)
	b, _ := ls.Alloc(64)
	ls.Free(b)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	ls.Free(b)
}

func TestLocalStoreUseAfterFreePanics(t *testing.T) {
	ls := NewLocalStore(1024)
	b, _ := ls.Alloc(64)
	ls.Free(b)
	defer func() {
		if recover() == nil {
			t.Error("use after free should panic")
		}
	}()
	_ = b.Bytes()
}

func TestLocalStoreForeignFreePanics(t *testing.T) {
	ls1 := NewLocalStore(1024)
	ls2 := NewLocalStore(1024)
	b, _ := ls1.Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("foreign free should panic")
		}
	}()
	ls2.Free(b)
}

// Property: any sequence of allocs and frees keeps buffers disjoint
// and conserves capacity.
func TestLocalStoreAllocatorInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		const capacity = 16 * 1024
		ls := NewLocalStore(capacity)
		var live []*LSBuffer
		allocated := 0
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				// Free a pseudo-random live buffer.
				i := int(op) % len(live)
				allocated -= live[i].Size()
				ls.Free(live[i])
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := int(op%2048) + 1
			b, err := ls.Alloc(size)
			if err != nil {
				continue // exhaustion is fine
			}
			allocated += b.Size()
			live = append(live, b)
		}
		// Conservation: free + allocated == capacity.
		if ls.FreeBytes()+allocated != capacity {
			return false
		}
		// Disjointness: no two live buffers overlap.
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.Offset() < b.Offset()+b.Size() && b.Offset() < a.Offset()+a.Size() {
					return false
				}
			}
		}
		// Cleanup: freeing everything restores full capacity in one span.
		for _, b := range live {
			ls.Free(b)
		}
		return ls.FreeBytes() == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLocalStoreWritesVisible(t *testing.T) {
	ls := NewLocalStore(1024)
	a, _ := ls.Alloc(16)
	b, _ := ls.Alloc(16)
	for i := range a.Bytes() {
		a.Bytes()[i] = 0xAA
	}
	for _, v := range b.Bytes() {
		if v != 0 {
			t.Fatal("write to one buffer leaked into another")
		}
	}
}

func TestLocalStoreBackingIsLazy(t *testing.T) {
	// An idle chip must cost no scratchpad memory: the 256 KB backing
	// array appears with the first allocation, while the capacity the
	// allocator and its callers see is there from the start.
	ls := NewLocalStore(perfmodel.LocalStoreBytes)
	if ls.buf != nil {
		t.Fatal("NewLocalStore allocated the backing bytes eagerly")
	}
	if ls.Size() != perfmodel.LocalStoreBytes || ls.FreeBytes() != perfmodel.LocalStoreBytes {
		t.Fatalf("idle store reports size %d, free %d", ls.Size(), ls.FreeBytes())
	}
	if _, err := ls.Alloc(perfmodel.LocalStoreBytes + 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized Alloc: %v, want ErrNoSpace", err)
	}
	if ls.buf != nil {
		t.Fatal("a failed Alloc allocated the backing bytes")
	}
	b, err := ls.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.buf) != perfmodel.LocalStoreBytes || len(b.Bytes()) != 64 {
		t.Fatalf("after Alloc: backing %d bytes, buffer %d", len(ls.buf), len(b.Bytes()))
	}
}
