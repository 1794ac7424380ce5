package kernels

// The shuffle partition hash — FNV-1a — lives here once, shared by the
// live runner's in-process partitioned shuffle (internal/core) and the
// distributed runtime's shuffle plane (internal/netmr), so the two
// backends can never silently diverge on where a key routes.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// PartitionIndexString maps a string key to one of parts partitions.
func PartitionIndexString(key string, parts int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int(h % uint64(parts))
}
