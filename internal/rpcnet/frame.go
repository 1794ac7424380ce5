package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hetmr/internal/metrics"
)

// Wire format, after the hello (see below): a stream of frames, each
//
//	[4B big-endian length n] [8B big-endian request ID]
//	[1B flags] [2B big-endian metaLen] [4B big-endian tailLen]
//	[metaLen bytes meta] [body] [tailLen bytes tail]
//
// where n counts everything after the length field (so n =
// 15 + metaLen + len(body) + tailLen, n ≤ MaxFrame). meta is the method
// name on requests and the error text on responses; body is the
// gob-encoded argument or result; tail is the call's bulk payload — a
// DFS block, a shuffle chunk — as raw bytes that never pass through gob
// (tailLen is 0 on every control frame). Both go to the socket exactly
// as the caller handed them over. The only flag is frameFlagResponse; a
// frame with any other bit set is malformed.
//
// Hello: each side opens with the 4-byte magic and nothing else. The
// client writes its own without waiting for the server's, so dialing a
// server that has stopped talking still returns.
const (
	frameFixedLen  = 8 + 1 + 2 + 4 // id + flags + metaLen + tailLen, counted by the length field
	frameHeaderLen = 4 + frameFixedLen

	frameFlagResponse = 1 << 0

	// frameMaxMeta bounds the meta field (2-byte length on the wire);
	// longer error texts are truncated.
	frameMaxMeta = 1<<16 - 1

	// maxPooledBuf caps the capacity of buffers returned to the pool,
	// so one jumbo frame doesn't pin megabytes forever; bulkBufMin is
	// where the pool's bulk size class starts.
	maxPooledBuf = 4 << 20
	bulkBufMin   = 64 << 10

	// connReadBuf sizes each connection end's bufio.Reader. It only has
	// to gather a frame's header, meta and a small body in one read: a
	// large body goes from the socket straight into readFrame's pooled
	// buffer (bufio bypasses its own buffer for reads at least its size).
	// Every pooled connection holds two for life and a warm cluster keeps
	// dozens of connections, so a 64 KB reader — which the Call*
	// benchmarks cannot tell from this one — made the read buffers most
	// of an idle cluster's live heap.
	connReadBuf = 4 << 10

	// preGrowCap caps the speculative Grow before a body or tail read;
	// the rest grows only as real bytes arrive, so a lying length
	// cannot force a huge allocation.
	preGrowCap = 256 << 10
)

// helloMagic names the frame layout: it moved to "hmr4" when the codec
// name left the hello and the compressed-frame flags left the header,
// so an "hmr3" peer fails the hello instead of misparsing.
var helloMagic = [4]byte{'h', 'm', 'r', '4'}

// bufPool and bulkPool recycle frame buffers across calls and
// connections, in two size classes: a control message's gob body never
// takes a buffer that grew to hold a block, which would leave the next
// block read to grow a small one all over again.
var bufPool, bulkPool = newBufPool(), newBufPool()

func newBufPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(bytes.Buffer) }}
}

// getBuf returns a pooled buffer for about n bytes; 0 is a gob encode,
// whose size nobody knows beforehand.
func getBuf(n int) *bytes.Buffer {
	if n >= bulkBufMin {
		return bulkPool.Get().(*bytes.Buffer)
	}
	return bufPool.Get().(*bytes.Buffer)
}

// putBuf returns b to the class its capacity puts it in, poisoned
// first in race builds (poisonReleased).
func putBuf(b *bytes.Buffer) {
	if b == nil {
		return
	}
	if p := b.Bytes(); poisonReleased {
		for n := copy(p, []byte{poisonByte}); n < len(p); n *= 2 {
			copy(p[n:], p[:n])
		}
	}
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	if b.Cap() >= bulkBufMin {
		bulkPool.Put(b)
	} else {
		bufPool.Put(b)
	}
}

// frame is one decoded wire frame. body and tail are pooled buffers
// (tail is nil when the frame carries none); the consumer returns both
// with release.
type frame struct {
	id    uint64
	flags byte
	meta  string
	body  *bytes.Buffer
	tail  *bytes.Buffer
}

// release returns the frame's buffers to the pool.
func (fr *frame) release() {
	putBuf(fr.body)
	putBuf(fr.tail)
}

// tailBytes returns the frame's tail, nil when it has none.
func (fr *frame) tailBytes() []byte {
	if fr.tail == nil {
		return nil
	}
	return fr.tail.Bytes()
}

// readFrame decodes the next frame from br. The returned buffers are
// pooled; the caller owns them.
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
	if hdr[12]&^frameFlagResponse != 0 {
		return frame{}, errMalformedFrame
	}
	fr := frame{id: binary.BigEndian.Uint64(hdr[4:12]), flags: hdr[12]}
	metaLen := int(binary.BigEndian.Uint16(hdr[13:15]))
	tailLen := int64(binary.BigEndian.Uint32(hdr[15:19]))
	bodyLen := int64(n) - frameFixedLen - int64(metaLen) - tailLen
	if bodyLen < 0 {
		return frame{}, errMalformedFrame
	}
	if metaLen > 0 {
		mb := make([]byte, metaLen)
		if _, err := io.ReadFull(br, mb); err != nil {
			return frame{}, err
		}
		fr.meta = string(mb)
	}
	var err error
	if fr.body, err = readPart(br, bodyLen); err == nil && tailLen > 0 {
		fr.tail, err = readPart(br, tailLen)
	}
	if err != nil {
		fr.release()
		return frame{}, err
	}
	return fr, nil
}

// readPart reads the next n bytes of a frame into a pooled buffer,
// filling the capacity it has and growing it in steps no larger than
// the bytes already read (the first at most preGrowCap): a lying length
// cannot force a huge allocation, and no buffer ends at twice its
// part's size (bytes.Buffer.ReadFrom doubles, then reserves MinRead).
func readPart(br *bufio.Reader, n int64) (*bytes.Buffer, error) {
	buf := getBuf(int(n))
	for int64(buf.Len()) < n {
		step := int(min(n-int64(buf.Len()), int64(max(buf.Len(), buf.Available(), preGrowCap))))
		buf.Grow(step)
		p := buf.AvailableBuffer()[:step]
		if _, err := io.ReadFull(br, p); err != nil {
			putBuf(buf)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf.Write(p) // p is the buffer's own free space: this only extends its length
	}
	return buf, nil
}

// frameWriter is a connection's write side, shared by every goroutine
// that sends on it: one frame at a time under mu, with the header
// scratch and the writev vector reused from frame to frame.
type frameWriter struct {
	conn net.Conn
	pipe bool // conn is in-process: its frames cross no socket and go unmetered

	mu   sync.Mutex  // serializes frame writes; guards the fields below
	head []byte      // header and meta of the frame being written
	vec  [3][]byte   // backing array of bufs
	bufs net.Buffers // head, body, tail: what one writev sends
}

// isPipe reports whether conn is an in-process pipe (WithInProcess).
func isPipe(conn net.Conn) bool { return conn.LocalAddr().Network() == "pipe" }

// writeFrame encodes one frame to w — header, body and tail in a single
// writev when the connection supports it, so neither payload is copied
// in user space. Callers hold fw.mu.
func (fw *frameWriter) writeFrame(w io.Writer, id uint64, flags byte, meta string, body, tail []byte) error {
	if len(meta) > frameMaxMeta {
		meta = meta[:frameMaxMeta]
	}
	n := frameFixedLen + len(meta) + len(body) + len(tail)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = flags
	binary.BigEndian.PutUint16(hdr[13:15], uint16(len(meta)))
	binary.BigEndian.PutUint32(hdr[15:19], uint32(len(tail)))
	fw.head = append(append(fw.head[:0], hdr[:]...), meta...)
	fw.bufs = append(fw.vec[:0], fw.head)
	for _, part := range [2][]byte{body, tail} {
		if len(part) > 0 {
			fw.bufs = append(fw.bufs, part)
		}
	}
	_, err := fw.bufs.WriteTo(w) // consumes bufs, leaving vec holding no caller's slice
	return err
}

// send is the shared send path: it meters body and tail (socket frames
// only) and writes the frame. A non-zero deadline bounds the write: a
// peer that stops reading fails it with a timeout error instead of
// wedging the sender and everyone queued on the connection behind it.
// The connection is unusable after any write error — part of the frame
// may be on the wire.
func (fw *frameWriter) send(deadline time.Time, id uint64, flags byte, meta string, body, tail []byte) error {
	if !fw.pipe {
		metrics.WireBytesRaw.Add(int64(len(body) + len(tail)))
	}
	fw.mu.Lock()
	if !deadline.IsZero() {
		fw.conn.SetWriteDeadline(deadline) // on a closed conn the write below reports it
	}
	err := fw.writeFrame(fw.conn, id, flags, meta, body, tail)
	if !deadline.IsZero() {
		fw.conn.SetWriteDeadline(time.Time{})
	}
	fw.mu.Unlock()
	return err
}

// writeHello sends this side's hello: the magic.
func writeHello(w io.Writer) error {
	_, err := w.Write(helloMagic[:])
	return err
}

// readHello consumes the peer's hello and fails on any magic but ours.
func readHello(br *bufio.Reader) error {
	var magic [len(helloMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if magic != helloMagic {
		return fmt.Errorf("rpcnet: bad protocol magic %q", magic[:])
	}
	return nil
}
