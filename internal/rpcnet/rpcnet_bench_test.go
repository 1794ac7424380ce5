package rpcnet

import (
	"bytes"
	"testing"
)

// BenchmarkCallBlock64KSnap measures the block path with the snap
// codec negotiated and a compressible payload — what shuffle fetches
// of text-like intermediate data see: 64 KB as a raw tail each way,
// compressed under the tail's own flag. The uncompressed call paths are
// bench/'s rpcnet.call_* probes; nothing there negotiates a codec.
func BenchmarkCallBlock64KSnap(b *testing.B) {
	s := newTailServer(b)
	c, err := Dial(s.Addr(), WithCodec("snap"))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	blob := bytes.Repeat([]byte("hetmr shuffle partition payload "), (64<<10)/32)
	out := make([]byte, 0, len(blob))
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = c.CallTail("mirror", struct{}{}, blob, nil, out[:0], 0); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(out, blob) {
		b.Fatal("payload corrupted over the compressed wire")
	}
}
