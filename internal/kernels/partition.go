package kernels

// The shuffle partition hash — FNV-1a — lives here once: it routes
// each word of a word count to its run (WordTable.Runs), and with it
// each word to the net reduce task that owns it.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// PartitionIndexString maps a key, as a string or as bytes, to one of
// parts partitions.
func PartitionIndexString[K string | []byte](key K, parts int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return int(h % uint64(parts))
}
