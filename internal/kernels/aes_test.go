package kernels

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// FIPS-197 Appendix C.1 vector.
func TestAESFIPS197Vector(t *testing.T) {
	key, _ := hex.DecodeString("000102030405060708090a0b0c0d0e0f")
	pt, _ := hex.DecodeString("00112233445566778899aabbccddeeff")
	want, _ := hex.DecodeString("69c4e0d86a7b0430d8cdb78070b4c55a")
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.EncryptBlock(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("FIPS-197 C.1: got %x, want %x", got, want)
	}
	back := make([]byte, 16)
	c.DecryptBlock(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("decrypt: got %x, want %x", back, pt)
	}
}

func TestAESKeySizeError(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 24, 32} {
		if _, err := NewCipher(make([]byte, n)); !errors.Is(err, ErrKeySize) {
			t.Errorf("key size %d: expected ErrKeySize, got %v", n, err)
		}
	}
}

func TestAESEncryptDecryptInPlace(t *testing.T) {
	key := []byte("0123456789abcdef")
	c, _ := NewCipher(key)
	data := []byte("fedcba9876543210")
	orig := append([]byte(nil), data...)
	c.EncryptBlock(data, data)
	if bytes.Equal(data, orig) {
		t.Fatal("encryption was identity")
	}
	c.DecryptBlock(data, data)
	if !bytes.Equal(data, orig) {
		t.Fatal("in-place roundtrip failed")
	}
}

func TestAESShortBlockPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	for name, fn := range map[string]func(){
		"encrypt short src": func() { c.EncryptBlock(make([]byte, 16), make([]byte, 8)) },
		"encrypt short dst": func() { c.EncryptBlock(make([]byte, 8), make([]byte, 16)) },
		"decrypt short src": func() { c.DecryptBlock(make([]byte, 16), make([]byte, 8)) },
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
