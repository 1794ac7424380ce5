package kernels

import "bytes"

// Text kernels for the classic MapReduce example, word count. It is
// not in the paper's evaluation but exercises the key/value half of the
// MapReduce API the way the original MapReduce and Hadoop papers
// motivate it.

// isWordByte reports whether b belongs to a word (letters and digits;
// everything else is a separator).
func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// IsWordByte exposes the word/separator classification, so runtimes
// that carve a block into sub-blocks (the accelerated wordcount path)
// can split only at separators and never cut a word in half.
func IsWordByte(b byte) bool { return isWordByte(b) }

// Words calls fn for every maximal word in data, lowercased. The
// callback slice is only valid during the call.
func Words(data []byte, fn func(word []byte)) {
	var buf [64]byte
	start := -1
	for i := 0; i <= len(data); i++ {
		inWord := i < len(data) && isWordByte(data[i])
		switch {
		case inWord && start < 0:
			start = i
		case !inWord && start >= 0:
			w := data[start:i]
			if len(w) <= len(buf) {
				for j, c := range w {
					if c >= 'A' && c <= 'Z' {
						c += 'a' - 'A'
					}
					buf[j] = c
				}
				fn(buf[:len(w)])
			} else {
				lw := bytes.ToLower(w)
				fn(lw)
			}
			start = -1
		}
	}
}

// WordCount tallies word frequencies in data.
func WordCount(data []byte) map[string]int64 {
	counts := make(map[string]int64)
	Words(data, func(w []byte) { counts[string(w)]++ })
	return counts
}
