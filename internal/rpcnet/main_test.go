package rpcnet

import (
	"testing"

	"hetmr/internal/testutil"
)

// TestMain fails the package if any test leaves a goroutine behind —
// readLoops, dispatch workers and pool dials must all wind down when
// their Client/Server closes.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

// withPoolSize dials a Client over n pooled connections instead of
// DefaultPoolSize: one connection makes frame interleaving on a single
// socket deterministic.
func withPoolSize(n int) Option {
	return func(o *dialOptions) { o.poolSize = n }
}
