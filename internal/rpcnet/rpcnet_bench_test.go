package rpcnet

import (
	"bytes"
	"testing"
)

// BenchmarkCallBlock64KSnap measures the block path with the snap
// codec negotiated and a compressible payload — what shuffle fetches
// of text-like intermediate data see. The uncompressed call paths are
// bench/'s rpcnet.call_* probes; nothing there negotiates a codec.
func BenchmarkCallBlock64KSnap(b *testing.B) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Handle("echo", func(body []byte) (any, error) {
		var blob []byte
		if err := Unmarshal(body, &blob); err != nil {
			return nil, err
		}
		return blob, nil
	})
	c, err := Dial(s.Addr(), WithCodec("snap"))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	blob := bytes.Repeat([]byte("hetmr shuffle partition payload "), (64<<10)/32)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []byte
		if err := c.Call("echo", blob, &out); err != nil {
			b.Fatal(err)
		}
	}
}
