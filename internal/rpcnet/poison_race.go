//go:build race

package rpcnet

// poisonReleased makes putBuf overwrite every released frame buffer
// with poisonByte in race builds: a use func or a handler that keeps a
// lent tail past its return reads poison, which the conformance tests
// catch, not bytes that stay right until the buffer is reused.
const poisonReleased, poisonByte = true, 0xDB
