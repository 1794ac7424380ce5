package kernels

import "encoding/binary"

// CTR mode turns the AES block cipher into a seekable stream cipher.
// Counter mode is what makes the paper's 4 KB SPE blocking trivially
// parallel: any byte range of the stream can be encrypted knowing only
// its offset, so each SPE block is independent. (ECB would also be
// embarrassingly parallel but leaks plaintext structure; the
// encryption *rate* is identical either way, which is what Fig. 2
// measures.)

// CTRStream encrypts or decrypts (the operation is its own inverse)
// src into dst using the cipher and 16-byte IV, treating src as the
// byte range [offset, offset+len(src)) of the logical stream. dst and
// src must have equal length and may alias.
func CTRStream(c *Cipher, iv []byte, offset int64, dst, src []byte) {
	if len(iv) != aesBlockSize {
		panic("kernels: CTR IV must be 16 bytes")
	}
	if len(dst) != len(src) {
		panic("kernels: CTR dst/src length mismatch")
	}
	if offset < 0 {
		panic("kernels: negative CTR offset")
	}
	var ks [aesBlockSize]byte
	block := offset / aesBlockSize
	phase := int(offset % aesBlockSize)
	for i := 0; i < len(src); {
		counterBlock(&ks, iv, uint64(block))
		c.EncryptBlock(ks[:], ks[:])
		for ; phase < aesBlockSize && i < len(src); phase++ {
			dst[i] = src[i] ^ ks[phase]
			i++
		}
		phase = 0
		block++
	}
}

// counterBlock builds IV+n with a 128-bit big-endian add of n.
func counterBlock(out *[aesBlockSize]byte, iv []byte, n uint64) {
	hi := binary.BigEndian.Uint64(iv[:8])
	lo := binary.BigEndian.Uint64(iv[8:])
	newLo := lo + n
	if newLo < lo {
		hi++
	}
	binary.BigEndian.PutUint64(out[:8], hi)
	binary.BigEndian.PutUint64(out[8:], newLo)
}
