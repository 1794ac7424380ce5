// Package kernels implements the paper's application kernels: AES-128
// encryption (the data-intensive workload, paper §IV-A), a Monte Carlo
// Pi estimator (the CPU-intensive workload, §IV-B), terasort's record
// sort, merge and range partitioner, and the word-count/grep kernels
// used by the extra examples.
//
// AES is crypto/aes behind Cipher, which exists to carry a validated
// AES-128 key through jobs, runtimes and examples; the CTR seek and
// carry logic on top of it (ctr.go, ctr_fast.go) is this package's own.
package kernels

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
)

// AES-128 parameters (FIPS-197 for Nk=4).
const (
	aesBlockSize = aes.BlockSize
	aesKeySize   = 16
)

// BlockSize is the AES block size in bytes.
const BlockSize = aesBlockSize

// ErrKeySize is returned when the key is not 16 bytes (the paper uses
// "a 128 bits key AES encryption algorithm").
var ErrKeySize = errors.New("kernels: AES-128 requires a 16-byte key")

// Cipher is an AES-128 block cipher with a fixed key. It is safe for
// concurrent use: its state is the read-only key schedule.
type Cipher struct {
	blk cipher.Block
}

// NewCipher builds the cipher for a 16-byte key. The longer AES key
// sizes crypto/aes would accept are rejected: the paper's workload is
// AES-128 and a Job's key is validated here.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != aesKeySize {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Cipher{blk: blk}, nil
}

// EncryptBlock encrypts one 16-byte block. dst and src may be the same
// slice; it panics when either is shorter than a block.
func (c *Cipher) EncryptBlock(dst, src []byte) { c.blk.Encrypt(dst, src) }

// DecryptBlock inverts EncryptBlock.
func (c *Cipher) DecryptBlock(dst, src []byte) { c.blk.Decrypt(dst, src) }
