package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"hetmr/internal/metrics"
	"hetmr/internal/spill"
)

// Wire format, after the hello exchange (see below): a stream of
// frames, each
//
//	[4B big-endian length n] [8B big-endian request ID]
//	[1B flags] [2B big-endian metaLen] [metaLen bytes meta] [body]
//
// where n counts everything after the length field (so n =
// 11 + metaLen + len(body), n ≤ MaxFrame). meta is the method name on
// requests and the error text on responses; body is the gob-encoded
// argument or result, optionally compressed (frameFlagCompressed) with
// the codec the hello exchange agreed on.
//
// Hello: each side opens with the 4-byte magic "hmr2", one length
// byte, and that many bytes of codec name. The client proposes a
// codec (or none); the server answers with the same name if it can
// decode it, empty otherwise. Either side compresses only after it
// has seen the other side accept — the exchange is asynchronous, so a
// client never waits for a server that has stopped talking.
const (
	frameFixedLen  = 8 + 1 + 2 // id + flags + metaLen, counted by the length field
	frameHeaderLen = 4 + frameFixedLen

	frameFlagResponse   = 1 << 0
	frameFlagCompressed = 1 << 1

	// frameMaxMeta bounds the meta field (2-byte length on the wire);
	// longer error texts are truncated.
	frameMaxMeta = 1<<16 - 1

	// compressMin is the smallest body worth running through the
	// negotiated codec; tiny control messages skip it.
	compressMin = 1 << 10

	// maxPooledBuf caps the capacity of buffers returned to the pool,
	// so one jumbo frame doesn't pin megabytes forever.
	maxPooledBuf = 4 << 20

	// connReadBuf sizes each connection end's bufio.Reader. It only has
	// to gather a frame's header, meta and a small body in one read: a
	// large body goes from the socket straight into readFrame's pooled
	// buffer (bufio bypasses its own buffer for reads at least its size).
	// Every pooled connection holds two for life and a warm cluster keeps
	// dozens of connections, so a 64 KB reader — which the Call*
	// benchmarks cannot tell from this one — made the read buffers most
	// of an idle cluster's live heap.
	connReadBuf = 4 << 10

	// preGrowCap caps the speculative Grow before a body read; the
	// rest grows only as real bytes arrive, so a lying length prefix
	// cannot force a huge allocation.
	preGrowCap = 256 << 10
)

var helloMagic = [4]byte{'h', 'm', 'r', '2'}

// bufPool recycles frame body and header buffers across calls and
// connections.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// frame is one decoded wire frame. body is a pooled buffer the
// consumer must release with putBuf.
type frame struct {
	id    uint64
	flags byte
	meta  string
	body  *bytes.Buffer
}

// readFrame decodes the next frame from br. The returned body buffer
// is pooled; the caller owns it.
func readFrame(br *bufio.Reader) (frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return frame{}, ErrFrameTooLarge
	}
	if n < frameFixedLen {
		return frame{}, errMalformedFrame
	}
	id := binary.BigEndian.Uint64(hdr[4:12])
	flags := hdr[12]
	metaLen := int(binary.BigEndian.Uint16(hdr[13:15]))
	bodyLen := int64(n) - frameFixedLen - int64(metaLen)
	if bodyLen < 0 {
		return frame{}, errMalformedFrame
	}
	meta := ""
	if metaLen > 0 {
		mb := make([]byte, metaLen)
		if _, err := io.ReadFull(br, mb); err != nil {
			return frame{}, err
		}
		meta = string(mb)
	}
	body := getBuf()
	if bodyLen > 0 {
		grow := bodyLen
		if grow > preGrowCap {
			grow = preGrowCap
		}
		body.Grow(int(grow))
		if _, err := io.CopyN(body, br, bodyLen); err != nil {
			putBuf(body)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
	}
	return frame{id: id, flags: flags, meta: meta, body: body}, nil
}

// writeFrame sends one frame under wmu, header and body in a single
// writev when the connection supports it.
func writeFrame(w io.Writer, wmu *sync.Mutex, id uint64, flags byte, meta string, body []byte) error {
	if len(meta) > frameMaxMeta {
		meta = meta[:frameMaxMeta]
	}
	n := frameFixedLen + len(meta) + len(body)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	hdrBuf := getBuf()
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = flags
	binary.BigEndian.PutUint16(hdr[13:15], uint16(len(meta)))
	hdrBuf.Write(hdr[:])
	hdrBuf.WriteString(meta)
	wmu.Lock()
	var err error
	if len(body) > 0 {
		bufs := net.Buffers{hdrBuf.Bytes(), body}
		_, err = bufs.WriteTo(w)
	} else {
		_, err = w.Write(hdrBuf.Bytes())
	}
	wmu.Unlock()
	putBuf(hdrBuf)
	return err
}

// sendFrame is the shared send path: it compresses the body when the
// peer accepted a codec and compression wins, meters raw vs on-wire
// payload bytes, and writes the frame.
func sendFrame(w io.Writer, wmu *sync.Mutex, id uint64, flags byte, meta string, rawBody []byte, codec spill.Codec) error {
	body := rawBody
	var compBuf *bytes.Buffer
	if codec != nil && len(rawBody) >= compressMin {
		compBuf = getBuf()
		if err := compressInto(codec, compBuf, rawBody); err == nil && compBuf.Len() < len(rawBody) {
			body = compBuf.Bytes()
			flags |= frameFlagCompressed
		}
	}
	metrics.WireBytesRaw.Add(int64(len(rawBody)))
	metrics.WireBytesOnWire.Add(int64(len(body)))
	err := writeFrame(w, wmu, id, flags, meta, body)
	putBuf(compBuf)
	return err
}

// compressInto runs src through one codec frame into dst.
func compressInto(codec spill.Codec, dst *bytes.Buffer, src []byte) error {
	cw := codec.NewWriter(dst)
	if _, err := cw.Write(src); err != nil {
		return err
	}
	return cw.Close()
}

// decompressInto inflates a compressed frame body into dst, bounded
// by MaxFrame.
func decompressInto(codec spill.Codec, dst *bytes.Buffer, src []byte) error {
	cr, err := codec.NewReader(bytes.NewReader(src))
	if err != nil {
		return err
	}
	defer cr.Close()
	n, err := io.Copy(dst, io.LimitReader(cr, MaxFrame+1))
	if err != nil {
		return err
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	return nil
}

// writeHello sends this side's hello: magic, codec-name length, name.
func writeHello(w io.Writer, codecName string) error {
	if len(codecName) > 255 {
		return fmt.Errorf("rpcnet: codec name %q too long", codecName)
	}
	hello := make([]byte, 0, len(helloMagic)+1+len(codecName))
	hello = append(hello, helloMagic[:]...)
	hello = append(hello, byte(len(codecName)))
	hello = append(hello, codecName...)
	_, err := w.Write(hello)
	return err
}

// readHello consumes the peer's hello and returns its codec name
// (empty when the peer proposed or accepted none).
func readHello(br *bufio.Reader) (string, error) {
	var hdr [len(helloMagic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", err
	}
	if !bytes.Equal(hdr[:len(helloMagic)], helloMagic[:]) {
		return "", fmt.Errorf("rpcnet: bad protocol magic %q", hdr[:len(helloMagic)])
	}
	n := int(hdr[len(helloMagic)])
	if n == 0 {
		return "", nil
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", err
	}
	return string(name), nil
}
