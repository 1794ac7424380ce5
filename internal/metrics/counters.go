// Package metrics holds the process-wide traffic counters (see Counter).
package metrics

import "sync/atomic"

// Counter is a process-wide monotonic meter. The data-plane layers
// increment the package-level counters below as bytes move, so tests
// and benchmarks can assert on where traffic actually went (heartbeat
// channel vs. shuffle stores vs. spill files) without threading a
// meter handle through every constructor.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current total.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter and returns the value it held — benchmarks
// reset between runs to meter one run at a time.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Package-level data-plane meters. They are cumulative across the
// process; callers that need a per-run figure snapshot Load before and
// after, or Reset between runs.
var (
	// SpillBytes counts payload bytes written to disk-backed spill
	// stores (DFS block stores, shuffle stores, sort-run stores) —
	// the external-memory half of the bounded-memory data plane. A
	// spilled payload is a raw file, so this is also the bytes on disk.
	SpillBytes Counter

	// DataPlaneBytes counts task output bytes that crossed a control
	// plane (the netmr JobTracker's heartbeat channel). A streaming
	// job keeps this near zero: outputs stay on the workers and only
	// locations travel.
	DataPlaneBytes Counter

	// QuotaRejections counts job submissions refused by multi-tenant
	// admission control (netmr.ErrQuotaExceeded).
	QuotaRejections Counter

	// JobsKilled counts jobs terminated mid-flight by a Kill RPC.
	JobsKilled Counter

	// WireBytesRaw counts rpcnet frame payload bytes — gob body plus
	// raw tail, headers and meta excluded — send-side, requests and
	// responses alike. Nothing on the wire is compressed, so these are
	// the payload bytes the sockets carried.
	WireBytesRaw Counter
)
