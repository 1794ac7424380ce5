package kernels

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"testing"
	"testing/quick"
)

func mustCipher(t testing.TB) *Cipher {
	t.Helper()
	c, err := NewCipher([]byte("paper-2009-key!!"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCTRMatchesStdlib(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("ivivivivivivffff")
	ours, _ := NewCipher(key)
	ref, _ := aes.NewCipher(key)
	stream := cipher.NewCTR(ref, iv)
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i * 31)
	}
	want := make([]byte, len(src))
	stream.XORKeyStream(want, src)
	got := make([]byte, len(src))
	CTRStream(ours, iv, 0, got, src)
	if !bytes.Equal(got, want) {
		t.Fatal("CTR output differs from crypto/cipher CTR")
	}
}

// Property: encrypting a stream in arbitrary chunk splits (as the SPE
// block scheduler does with 4KB blocks) equals encrypting it whole.
func TestCTRSeekabilityProperty(t *testing.T) {
	c := mustCipher(t)
	iv := []byte("0000111122223333")
	f := func(data []byte, cutsRaw []uint16) bool {
		whole := make([]byte, len(data))
		CTRStream(c, iv, 0, whole, data)
		chunked := make([]byte, len(data))
		off := 0
		for _, cr := range cutsRaw {
			if off >= len(data) {
				break
			}
			n := int(cr)%257 + 1
			if off+n > len(data) {
				n = len(data) - off
			}
			CTRStream(c, iv, int64(off), chunked[off:off+n], data[off:off+n])
			off += n
		}
		if off < len(data) {
			CTRStream(c, iv, int64(off), chunked[off:], data[off:])
		}
		return bytes.Equal(whole, chunked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCTRIsItsOwnInverse(t *testing.T) {
	c := mustCipher(t)
	iv := make([]byte, 16)
	data := []byte("the quick brown fox jumps over the lazy dog")
	enc := make([]byte, len(data))
	CTRStream(c, iv, 7, enc, data)
	dec := make([]byte, len(data))
	CTRStream(c, iv, 7, dec, enc)
	if !bytes.Equal(dec, data) {
		t.Fatal("CTR roundtrip failed")
	}
}

func TestCTRCounterCarry(t *testing.T) {
	// IV with low word all-ones: adding 1 must carry into the high
	// word, not wrap within the low word only.
	iv := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	var blk0, blk1 [16]byte
	counterBlock(&blk0, iv, 0)
	counterBlock(&blk1, iv, 1)
	if blk1[7] != 1 {
		t.Errorf("carry into high word missing: %x", blk1)
	}
	for i := 8; i < 16; i++ {
		if blk1[i] != 0 {
			t.Errorf("low word after carry: %x", blk1)
		}
	}
	if blk0[8] != 0xff {
		t.Errorf("counter 0 should be the IV itself: %x", blk0)
	}
}

func TestCTRPanics(t *testing.T) {
	c := mustCipher(t)
	for name, fn := range map[string]func(){
		"bad iv":     func() { CTRStream(c, make([]byte, 8), 0, make([]byte, 4), make([]byte, 4)) },
		"len":        func() { CTRStream(c, make([]byte, 16), 0, make([]byte, 3), make([]byte, 4)) },
		"neg offset": func() { CTRStream(c, make([]byte, 16), -1, make([]byte, 4), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
