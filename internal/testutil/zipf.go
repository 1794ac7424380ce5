package testutil

import "math/rand/v2"

// ZipfText returns size bytes of space-separated words drawn Zipf(1.2)
// from a fixed vocabulary of 5 000 lowercase words of 3 to 12 letters,
// the shape of the wordcount benchmark's text; seed picks the draw.
func ZipfText(seed uint64, size int) []byte {
	vr := rand.New(rand.NewPCG(2009, 0))
	vocab := make([][]byte, 5000)
	for i := range vocab {
		w := []byte{byte('a' + i%26), byte('a' + i/26%26), byte('a' + i/676%26)}
		for extra := vr.IntN(10); extra > 0; extra-- {
			w = append(w, byte('a'+vr.IntN(26)))
		}
		vocab[i] = w
	}
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0)), 1.2, 1, uint64(len(vocab)-1))
	text := make([]byte, 0, size+16)
	for len(text) < size {
		text = append(append(text, vocab[z.Uint64()]...), ' ')
	}
	return text[:size]
}
