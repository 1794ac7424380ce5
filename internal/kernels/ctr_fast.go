package kernels

import "crypto/cipher"

// This file routes the production encryption paths through the
// standard library's AES-CTR (crypto/aes pipelines AES-NI across
// counter blocks; the bottleneck is keystream generation, not the XOR)
// while keeping the block-at-a-time CTRStream as the independent
// reference for the seek and carry logic (and the SPE model's "device"
// kernel shape). Output is bit-identical across both: CTR is fully
// determined by key, IV and offset.

// CTRStreamFast is CTRStream on the standard library's AES-CTR:
// bit-identical output, hardware AES where the platform provides it.
// Seeking works the same way as the reference path — start the counter
// at IV+offset/16 and discard the unaligned phase bytes.
func CTRStreamFast(c *Cipher, iv []byte, offset int64, dst, src []byte) {
	if len(iv) != aesBlockSize {
		panic("kernels: CTR IV must be 16 bytes")
	}
	if len(dst) != len(src) {
		panic("kernels: CTR dst/src length mismatch")
	}
	if offset < 0 {
		panic("kernels: negative CTR offset")
	}
	if len(src) == 0 {
		return
	}
	ctrStreamStd(c.blk, iv, offset, dst, src)
}

// ctrStreamStd runs the seeked stdlib CTR transform over one range.
func ctrStreamStd(blk cipher.Block, iv []byte, offset int64, dst, src []byte) {
	var ctr [aesBlockSize]byte
	counterBlock(&ctr, iv, uint64(offset/aesBlockSize))
	stream := cipher.NewCTR(blk, ctr[:])
	if phase := int(offset % aesBlockSize); phase > 0 {
		var discard [aesBlockSize]byte
		stream.XORKeyStream(discard[:phase], discard[:phase])
	}
	stream.XORKeyStream(dst, src)
}

// CTRBlockFuncFast is the stdlib-CTR counterpart of CTRBlockFunc: the
// cipher is shared — safe concurrently, its state is the read-only key
// schedule; each call seeks its own CTR stream.
func CTRBlockFuncFast(c *Cipher, iv []byte) func(block []byte, offset int64) error {
	ivCopy := append([]byte(nil), iv...)
	return func(block []byte, offset int64) error {
		if offset < 0 {
			panic("kernels: negative CTR offset")
		}
		ctrStreamStd(c.blk, ivCopy, offset, block, block)
		return nil
	}
}
