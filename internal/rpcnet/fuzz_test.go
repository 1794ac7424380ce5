package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

// encodeFrame is frameWriter.writeFrame into memory.
func encodeFrame(t testing.TB, id uint64, flags byte, meta string, body, tail []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	var fw frameWriter
	if err := fw.writeFrame(&buf, id, flags, meta, body, tail); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retiredFlags are the bits that once marked a compressed body (1) and
// a compressed tail (2); a frame carrying either is malformed now.
const retiredFlags = 1<<1 | 1<<2

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. Malformed
// input — lying length prefixes, truncated headers, meta or tail
// running past the frame, any flag bit but the response bit — must
// return an error, never panic, and never allocate past MaxFrame: the
// decoder pre-grows at most preGrowCap per part and then only as real
// bytes arrive.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames as seeds, without and with a tail.
	f.Add(encodeFrame(f, 1, 0, "echo", []byte("hello"), nil))
	f.Add(encodeFrame(f, 7, frameFlagResponse, "", bytes.Repeat([]byte("x"), 100), nil))
	f.Add(encodeFrame(f, 2, 0, "Put", []byte("args"), bytes.Repeat([]byte("t"), 300)))
	// Frames flagged compressed, tail and body: each must be rejected.
	f.Add(encodeFrame(f, 3, frameFlagResponse|1<<2, "", nil, []byte("tail only")))
	f.Add(encodeFrame(f, 5, 1<<1, "echo", []byte("body"), nil))
	// Length prefix claiming MaxFrame with no body behind it.
	var lying [frameHeaderLen]byte
	binary.BigEndian.PutUint32(lying[0:4], MaxFrame)
	f.Add(lying[:])
	// Length prefix over MaxFrame.
	binary.BigEndian.PutUint32(lying[0:4], MaxFrame+1)
	f.Add(lying[:])
	// metaLen pointing past the frame end.
	var badMeta [frameHeaderLen]byte
	binary.BigEndian.PutUint32(badMeta[0:4], frameFixedLen+1)
	binary.BigEndian.PutUint16(badMeta[13:15], 5000)
	f.Add(badMeta[:])
	// tailLen claiming more than n leaves, and one claiming MaxFrame
	// inside an honest n with nothing behind it.
	badTail := encodeFrame(f, 4, 0, "m", []byte("body"), []byte("tail"))
	binary.BigEndian.PutUint32(badTail[15:19], 1<<20)
	f.Add(badTail)
	binary.BigEndian.PutUint32(lying[0:4], MaxFrame)
	binary.BigEndian.PutUint32(lying[15:19], MaxFrame-frameFixedLen)
	f.Add(lying[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		if fr.flags&^frameFlagResponse != 0 {
			t.Fatalf("decoded a frame flagged %08b", fr.flags)
		}
		if got := len(fr.meta) + fr.body.Len() + len(fr.tailBytes()); got > len(data) {
			t.Fatalf("decoded more bytes (%d meta + %d body + %d tail) than the input held (%d)",
				len(fr.meta), fr.body.Len(), len(fr.tailBytes()), len(data))
		}
		fr.release()
	})
}

// FuzzReadHello feeds arbitrary bytes to the hello decoder: only input
// that opens with this layout's magic passes. The older layouts' hellos
// — "hmr3" proposing a codec, "hmr2" — must fail.
func FuzzReadHello(f *testing.F) {
	f.Add([]byte("hmr4"))
	f.Add([]byte("hmr3\x04snap"))
	f.Add([]byte("hmr2\x00"))
	f.Add([]byte("junk\x04snap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readHello(bufio.NewReader(bytes.NewReader(data)))
		if ours := bytes.HasPrefix(data, helloMagic[:]); ours != (err == nil) {
			t.Fatalf("hello %q: err %v", data, err)
		}
	})
}

// FuzzServeConn runs raw fuzz bytes through a live server connection:
// whatever arrives on the socket — garbage hello, corrupt frames,
// truncated gob bodies — must never crash the server.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("hmr4"))
	f.Add(append([]byte("hmr3\x04snap"), 0, 0, 0, 30))
	// A whole tailed request, and one flagged compressed (body and tail).
	f.Add(append([]byte("hmr4"), encodeFrame(f, 1, 0, "echo", nil, []byte("tail"))...))
	f.Add(append([]byte("hmr4"), encodeFrame(f, 2, retiredFlags, "echo", []byte("body"), []byte("tail"))...))
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	s.Handle("echo", func(b []byte) (any, error) { return b, nil })
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Skip(err)
		}
		conn.Write(data)
		conn.Close()
	})
}
