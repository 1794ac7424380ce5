package spill

import (
	"compress/flate"
	"io"
)

// Codec is a streaming frame compressor for spilled payloads: the
// spill frame seam, and nothing else — the wire layer compresses
// nothing. Flate is the one implementation. Implementations must
// round-trip exactly: NewReader(NewWriter(frame)) yields the original
// bytes.
type Codec interface {
	// Name labels the codec in diagnostics.
	Name() string
	// NewWriter wraps w with a compressing writer; Close flushes the
	// frame without closing w.
	NewWriter(w io.Writer) io.WriteCloser
	// NewReader wraps r with the matching decompressor.
	NewReader(r io.Reader) (io.ReadCloser, error)
}

// Flate returns the built-in codec: DEFLATE at the fastest setting,
// the stdlib stand-in for a snappy-style frame codec (fast, modest
// ratio, streaming).
func Flate() Codec { return flateCodec{} }

type flateCodec struct{}

func (flateCodec) Name() string { return "flate" }

func (flateCodec) NewWriter(w io.Writer) io.WriteCloser {
	// BestSpeed can't fail for a valid level; the error path exists
	// for out-of-range levels only.
	fw, err := flate.NewWriter(w, flate.BestSpeed)
	if err != nil {
		panic("spill: flate.NewWriter: " + err.Error())
	}
	return fw
}

func (flateCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return flate.NewReader(r), nil
}
