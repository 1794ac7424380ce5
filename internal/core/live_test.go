package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"testing"
	"testing/quick"

	"hetmr/internal/kernels"
	"hetmr/internal/spurt"
)

// textCluster stores text across a small cluster with small blocks so
// jobs span many blocks and nodes.
func textCluster(t *testing.T, text string) *LiveCluster {
	t.Helper()
	c, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("/input.txt", []byte(text), ""); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunWordCount(t *testing.T) {
	// Blocks cut words arbitrarily, so use text whose words never span
	// block boundaries: 4-byte words, 64-byte blocks.
	var sb strings.Builder
	for i := 0; i < 160; i++ {
		sb.WriteString(fmt.Sprintf("w%02d ", i%5)) // "w00 ".."w04 ", 4 bytes each
	}
	c := textCluster(t, sb.String())
	run, err := c.RunWordCount("/input.txt")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := runCounts(run)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 5 {
		t.Fatalf("got %d words: %v", len(counts), counts)
	}
	for w, n := range counts {
		if n != 32 {
			t.Errorf("count[%s] = %d, want 32", w, n)
		}
	}
}

// runCounts decodes a word run into a map, failing on a malformed or
// unsorted run.
func runCounts(run []byte) (map[string]int64, error) {
	counts := make(map[string]int64)
	err := kernels.EachWordRun(run, func(w []byte, n int64) { counts[string(w)] = n })
	return counts, err
}

func TestRunWordCountValidation(t *testing.T) {
	c := textCluster(t, "hello world")
	if _, err := c.RunWordCount("/missing"); !errors.Is(err, ErrNoInput) {
		t.Errorf("missing input: %v", err)
	}
}

func TestRunStreamEncryptionBothPathsMatch(t *testing.T) {
	cipher, err := kernels.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	iv := []byte("fedcba9876543210")
	plain := make([]byte, 100000)
	for i := range plain {
		plain[i] = byte(i * 7)
	}

	// 10 000-byte blocks: the host path transforms each block in one
	// call while the SPEs cut it into 4 KB blocks and a 1 808-byte tail,
	// so equal output pins the kernel's offset seeking.
	c, err := NewLiveCluster(Config{Nodes: 3, BlockSize: 10_000, AcceleratedNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("/plain", plain, ""); err != nil {
		t.Fatal(err)
	}
	kern := spurt.KernelFunc{KernelName: "aes-ctr", Fn: kernels.CTRBlockFunc(cipher, iv)}

	stream := func(input string, accelerated bool) []byte {
		t.Helper()
		var out bytes.Buffer
		if err := c.RunStream(&StreamJob{
			Name: "enc", Input: input, Kernel: kern, Accelerated: accelerated,
		}, &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	cell := stream("/plain", true)
	if len(cell) != len(plain) {
		t.Errorf("wrote %d bytes, want %d", len(cell), len(plain))
	}
	java := stream("/plain", false)
	if !bytes.Equal(cell, java) {
		t.Fatal("accelerated and host paths disagree")
	}
	// And both must equal the single sequential reference encryption.
	want := make([]byte, len(plain))
	kernels.CTRStream(cipher, iv, 0, want, plain)
	if !bytes.Equal(cell, want) {
		t.Fatal("distributed encryption differs from sequential reference")
	}
	// CTR decrypts itself: run the stream again over the ciphertext.
	if err := c.FS.WriteFile("/enc-cell", cell, ""); err != nil {
		t.Fatal(err)
	}
	if dec := stream("/enc-cell", true); !bytes.Equal(dec, plain) {
		t.Fatal("decryption did not restore the plaintext")
	}
}

func TestRunStreamValidation(t *testing.T) {
	c, _ := NewLiveCluster(Config{Nodes: 1, BlockSize: 1024})
	c.FS.WriteFile("/x", []byte("data"), "")
	if err := c.RunStream(&StreamJob{Name: "k", Input: "/x"}, io.Discard); err == nil {
		t.Error("nil kernel should fail")
	}
	kern := spurt.KernelFunc{KernelName: "id", Fn: func([]byte, int64) error { return nil }}
	if err := c.RunStream(&StreamJob{Name: "k", Input: "/nope", Kernel: kern}, io.Discard); err == nil {
		t.Error("missing input should fail")
	}
}

func TestRunStreamHeterogeneousFallback(t *testing.T) {
	// Only 1 of 2 nodes accelerated: blocks on the plain node use the
	// host path transparently; output must still be correct.
	cipher, _ := kernels.NewCipher([]byte("abcdefgh12345678"))
	iv := make([]byte, 16)
	plain := make([]byte, 20000)
	for i := range plain {
		plain[i] = byte(i)
	}
	c, err := NewLiveCluster(Config{Nodes: 2, BlockSize: 4096, AcceleratedNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.FS.WriteFile("/p", plain, "")
	kern := spurt.KernelFunc{KernelName: "aes", Fn: kernels.CTRBlockFunc(cipher, iv)}
	var got bytes.Buffer
	if err := c.RunStream(&StreamJob{
		Name: "het", Input: "/p", Kernel: kern, Accelerated: true,
	}, &got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(plain))
	kernels.CTRStream(cipher, iv, 0, want, plain)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("heterogeneous cluster produced wrong ciphertext")
	}
}

// Property: live word count equals the direct kernel on the whole
// input, regardless of how blocks cut the text, as long as words do
// not span blocks (4-char words, block size multiple of 4).
func TestRunWordCountMatchesDirectProperty(t *testing.T) {
	f := func(wordsRaw []uint8) bool {
		if len(wordsRaw) == 0 {
			return true
		}
		if len(wordsRaw) > 200 {
			wordsRaw = wordsRaw[:200]
		}
		var sb strings.Builder
		for _, w := range wordsRaw {
			sb.WriteString(fmt.Sprintf("t%02d ", w%10))
		}
		text := sb.String()
		c, err := NewLiveCluster(Config{Nodes: 2, BlockSize: 32})
		if err != nil {
			return false
		}
		if err := c.FS.WriteFile("/input.txt", []byte(text), ""); err != nil {
			return false
		}
		run, err := c.RunWordCount("/input.txt")
		if err != nil {
			return false
		}
		got, err := runCounts(run)
		return err == nil && maps.Equal(got, kernels.WordCount([]byte(text)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
