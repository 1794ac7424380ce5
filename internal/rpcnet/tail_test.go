package rpcnet

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetmr/internal/metrics"
	"hetmr/internal/testutil"
)

// tailArg asks the "tail" handler for a reply tail of Reply bytes of
// pattern; tailReply reports the request tail the handler saw.
type tailArg struct{ Reply int }
type tailReply struct {
	Got int
	Sum byte
}

func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

// keep returns a use func that copies the lent reply tail into *dst.
func keep(dst *[]byte) func([]byte) error {
	return func(tail []byte) error {
		*dst = append((*dst)[:0], tail...)
		return nil
	}
}

func xorSum(p []byte) (s byte) {
	for _, b := range p {
		s ^= b
	}
	return s
}

// newTailServer is newEchoServer (the un-tailed "echo") plus "tail"
// (see tailArg) and "mirror", which answers with a copy of the request
// tail.
func newTailServer(t testing.TB) *Server {
	t.Helper()
	s := newEchoServer(t)
	s.HandleTail("tail", func(body []byte, tail *Tail) (any, Reply, error) {
		var a tailArg
		if err := Unmarshal(body, &a); err != nil {
			return nil, Reply{}, err
		}
		var out []byte
		if a.Reply > 0 {
			out = pattern(a.Reply)
		}
		return tailReply{Got: len(tail.Bytes()), Sum: xorSum(tail.Bytes())}, Reply{Bytes: out}, nil
	})
	s.HandleTail("mirror", func(_ []byte, tail *Tail) (any, Reply, error) {
		return struct{}{}, Reply{Bytes: bytes.Clone(tail.Bytes())}, nil
	})
	return s
}

// TestCallTailRoundTrip: a tail each way, one way and neither — every
// byte must come back as sent, and the gob result must ride along
// untouched.
func TestCallTailRoundTrip(t *testing.T) {
	random := make([]byte, 96<<10)
	rand.Read(random)
	text := bytes.Repeat([]byte("shuffle partition payload "), 4<<10)
	s := newTailServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name  string
		tail  []byte
		reply int
	}{
		{"both ways", text, 200 << 10},
		{"both ways random", random, 3},
		{"request only", random, 0},
		{"reply only", nil, 64 << 10},
		{"neither", nil, 0},
	} {
		var rep tailReply
		var dst []byte
		err := c.CallTail("tail", tailArg{Reply: tc.reply}, tc.tail, &rep, 0, keep(&dst))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Got != len(tc.tail) || rep.Sum != xorSum(tc.tail) {
			t.Errorf("%s: handler saw %d tail bytes (sum %#x), sent %d (sum %#x)",
				tc.name, rep.Got, rep.Sum, len(tc.tail), xorSum(tc.tail))
		}
		if !bytes.Equal(dst, pattern(tc.reply)) {
			t.Errorf("%s: reply tail of %d bytes differs from the %d sent", tc.name, len(dst), tc.reply)
		}
	}
	var got []byte
	err = c.CallTail("mirror", struct{}{}, text, nil, 0, keep(&got))
	if err != nil || !bytes.Equal(got, text) {
		t.Errorf("mirror: %d bytes back, err %v; want the %d sent, bit-identical", len(got), err, len(text))
	}
}

// TestCallTailUse pins the caller's side of the reply-tail contract:
// use sees exactly the reply's tail, after result is decoded; a nil use
// discards it; use's error is the call's error; and a call that fails
// never runs use.
func TestCallTailUse(t *testing.T) {
	s := newTailServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var rep tailReply
	calls := 0
	err = c.CallTail("tail", tailArg{Reply: 16}, pattern(5), &rep, 0, func(tail []byte) error {
		calls++
		if !bytes.Equal(tail, pattern(16)) {
			t.Errorf("use saw %q, want the %d-byte reply tail", tail, 16)
		}
		if rep.Got != 5 {
			t.Errorf("use ran before the result was decoded: result %+v", rep)
		}
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("call ran use %d times, err %v; want once and no error", calls, err)
	}

	// A nil use discards the tail; an empty tail is lent as no bytes.
	if err := c.CallTail("tail", tailArg{Reply: 64 << 10}, nil, &rep, 0, nil); err != nil {
		t.Errorf("nil use: %v", err)
	}
	var out []byte
	rep = tailReply{} // gob leaves a zero field as it found it
	if err := c.CallTail("tail", tailArg{}, []byte{}, &rep, 0, keep(&out)); err != nil || len(out) != 0 || rep.Got != 0 {
		t.Errorf("empty tail: use saw %q, handler saw %d bytes, err %v", out, rep.Got, err)
	}

	// use's error is returned as it is.
	errUse := errors.New("the kernel failed")
	if err := c.CallTail("tail", tailArg{Reply: 16}, nil, nil, 0, func([]byte) error { return errUse }); err != errUse {
		t.Errorf("use's error came back as %v, want %v", err, errUse)
	}

	// An un-tailed method ignores a tail sent to it and answers with none.
	var echo echoReply
	out = []byte("stale")
	if err := c.CallTail("echo", echoArg{Msg: "hi"}, pattern(2000), &echo, 0, keep(&out)); err != nil || echo.Msg != "hi" || len(out) != 0 {
		t.Errorf("tail to an un-tailed method: reply %q, use saw %q, err %v", echo.Msg, out, err)
	}

	// A failed call — a remote error, an unknown method, a refused
	// result type — never runs use.
	never := func([]byte) error {
		t.Error("use ran for a failed call")
		return nil
	}
	if err := c.CallTail("fail", echoArg{}, nil, nil, 0, never); err == nil {
		t.Error("remote failure: no error")
	}
	if err := c.CallTail("nope", tailArg{}, nil, nil, 0, never); err == nil {
		t.Error("unknown method: no error")
	}
	if err := c.CallTail("tail", tailArg{}, nil, new(func()), 0, never); err == nil {
		t.Error("refused result type: no error")
	}
}

// TestKeptTailReadsAsPoison: a use that keeps the lent tail past its
// return — the bug the ownership rule forbids — reads poison in a race
// build, not the reply bytes it would go on reading until the buffer
// was reused. CI's race lane is where that catches it.
func TestKeptTailReadsAsPoison(t *testing.T) {
	if !testutil.RaceEnabled {
		t.Skip("released frame buffers are poisoned only in race builds")
	}
	s := newTailServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var kept []byte
	err = c.CallTail("tail", tailArg{Reply: 200 << 10}, nil, nil, 0, func(tail []byte) error {
		kept = tail
		return nil
	})
	if err != nil || len(kept) != 200<<10 {
		t.Fatalf("call: kept %d bytes, err %v", len(kept), err)
	}
	for i, b := range kept {
		if b != poisonByte {
			t.Fatalf("kept tail byte %d reads %#x after CallTail returned, want poison %#x", i, b, poisonByte)
		}
	}
}

// TestKeptTailAndReleasedReply: a handler that keeps its request tail
// owns the buffer — the server neither reuses nor, in race builds,
// poisons it — until Recycle, which poisons it over its whole capacity
// in race builds; and a reply's Release runs once its frame is written,
// also when the handler's error replaced the reply.
func TestKeptTailAndReleasedReply(t *testing.T) {
	s := newTailServer(t)
	kept := make(chan []byte, 1)
	s.HandleTail("keep", func(_ []byte, tail *Tail) (any, Reply, error) {
		kept <- tail.Keep()
		return struct{}{}, Reply{}, nil
	})
	released := make(chan string, 2)
	stored := pattern(200 << 10)
	s.HandleTail("lend", func(body []byte, _ *Tail) (any, Reply, error) {
		var fail bool
		if err := Unmarshal(body, &fail); err != nil {
			return nil, Reply{}, err
		}
		reply := Reply{Bytes: stored, Release: func() { released <- fmt.Sprint("fail=", fail) }}
		if fail {
			return nil, reply, errors.New("refused")
		}
		return struct{}{}, reply, nil
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sent := pattern(300 << 10)
	if err := c.CallTail("keep", struct{}{}, sent, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	p := <-kept
	other := bytes.Repeat([]byte{0xEE}, len(sent))
	for range 4 { // frame traffic that would take a pooled buffer back
		if err := c.CallTail("tail", tailArg{}, other, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(p, sent) {
		t.Fatal("a kept tail changed after its handler returned")
	}
	Recycle(p)
	if testutil.RaceEnabled {
		for i, b := range p[:cap(p)] {
			if b != poisonByte {
				t.Fatalf("recycled buffer byte %d reads %#x, want poison %#x", i, b, poisonByte)
			}
		}
	}

	for _, fail := range []bool{false, true} {
		var got []byte
		err := c.CallTail("lend", fail, nil, nil, 0, func(tail []byte) error {
			got = bytes.Clone(tail)
			return nil
		})
		if fail != (err != nil) || !fail && !bytes.Equal(got, stored) {
			t.Fatalf("lend(fail=%v): %d bytes back, err %v", fail, len(got), err)
		}
		select {
		case who := <-released:
			if who != fmt.Sprint("fail=", fail) {
				t.Fatalf("released %s, want fail=%v", who, fail)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lend(fail=%v): the reply's Release never ran", fail)
		}
	}
}

// TestWireBytesRawCountsBodiesAndTails pins the wire meter's meaning:
// a call grows metrics.WireBytesRaw by exactly what both frames carry
// past their headers — the gob-encoded argument and result plus the
// request and reply tails — since every byte goes to the socket as it
// was handed over. The same call over an in-process pipe crosses no
// socket and adds nothing. The benchmark's wire-per-input-byte figure
// divides by this counter.
func TestWireBytesRawCountsBodiesAndTails(t *testing.T) {
	const size = 100_000
	s := newTailServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tail := pattern(size)
	arg := tailArg{Reply: size}
	argBody, err := Marshal(arg)
	if err != nil {
		t.Fatal(err)
	}
	replyBody, err := Marshal(tailReply{Got: size, Sum: xorSum(tail)})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.WireBytesRaw.Load()
	var rep tailReply
	var dst []byte
	err = c.CallTail("tail", arg, tail, &rep, 0, keep(&dst))
	if err != nil || len(dst) != size {
		t.Fatalf("call: %d reply tail bytes, err %v", len(dst), err)
	}
	// The server meters its reply before writing it, so the count is
	// complete once the call returns.
	want := int64(len(argBody) + size + len(replyBody) + size)
	if got := metrics.WireBytesRaw.Load() - before; got != want {
		t.Errorf("WireBytesRaw grew by %d, want %d (bodies %d + %d, tails %d + %d)",
			got, want, len(argBody), len(replyBody), size, size)
	}

	local, err := Dial(s.Addr(), WithInProcess())
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	before = metrics.WireBytesRaw.Load()
	if err = local.CallTail("tail", arg, tail, &rep, 0, keep(&dst)); err != nil || len(dst) != size {
		t.Fatalf("in-process call: %d reply tail bytes, err %v", len(dst), err)
	}
	if got := metrics.WireBytesRaw.Load() - before; got != 0 {
		t.Errorf("an in-process call grew WireBytesRaw by %d, want 0", got)
	}
}

// TestReadFrameRejectsUnknownFlags: the response bit is the only flag.
// A frame with any other bit set — bits 1 and 2 once marked a
// compressed body and tail — is malformed on either side of the
// connection: the server drops the connection without dispatching the
// request, and the client fails every call pending on it. Decoding
// such a frame as raw bytes would hand gob a compressed body.
func TestReadFrameRejectsUnknownFlags(t *testing.T) {
	for _, bit := range []byte{1 << 1, 1 << 2, 1 << 7} {
		t.Run(fmt.Sprintf("bit=%d", bits.TrailingZeros8(bit)), func(t *testing.T) {
			for _, flags := range []byte{bit, frameFlagResponse | bit} {
				frame := encodeFrame(t, 1, flags, "m", []byte("body"), []byte("tail"))
				if _, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); !errors.Is(err, errMalformedFrame) {
					t.Errorf("flags %08b: err %v, want errMalformedFrame", flags, err)
				}
			}
			t.Run("request", func(t *testing.T) { testServerDropsFlaggedRequest(t, bit) })
			t.Run("response", func(t *testing.T) { testClientFailsOnFlaggedResponse(t, bit) })
		})
	}
}

// testServerDropsFlaggedRequest sends the server a request frame with
// the extra flag bit and expects the connection closed with the handler
// never run.
func testServerDropsFlaggedRequest(t *testing.T, bit byte) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dispatched atomic.Int32
	s.Handle("count", func([]byte) (any, error) {
		dispatched.Add(1)
		return struct{}{}, nil
	})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := Marshal(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(encodeFrame(t, 1, bit, "count", body, nil)); err != nil {
		t.Fatal(err)
	}
	// The server closes a connection only after its in-flight handlers
	// return, so once the read ends no dispatch can still be on its way.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept the connection open after a request flagged %08b", bit)
	}
	if len(got) > len(helloMagic) {
		t.Fatalf("server sent %d bytes after its hello to a request flagged %08b", len(got)-len(helloMagic), bit)
	}
	if n := dispatched.Load(); n != 0 {
		t.Errorf("handler ran %d times for a request flagged %08b", n, bit)
	}
}

// testClientFailsOnFlaggedResponse answers the first of two pending
// calls with a response frame carrying the extra flag bit: both calls
// must fail with errMalformedFrame, not decode the frame or hang.
func testClientFailsOnFlaggedResponse(t *testing.T, bit byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body, err := Marshal("reply")
	if err != nil {
		t.Fatal(err)
	}
	var peer sync.WaitGroup
	defer peer.Wait()
	peer.Add(1)
	go func() {
		defer peer.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if readHello(br) != nil || writeHello(conn) != nil {
			return
		}
		var first uint64
		for i := 0; i < 2; i++ {
			fr, err := readFrame(br)
			if err != nil {
				return
			}
			if i == 0 {
				first = fr.id
			}
			fr.release()
		}
		// A failed send leaves both calls to time out, which the test
		// reports as the wrong error.
		fw := frameWriter{conn: conn}
		fw.send(time.Time{}, first, frameFlagResponse|bit, "", body, nil)
		io.Copy(io.Discard, conn) // until the client hangs up
	}()

	c, err := Dial(ln.Addr().String(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var out string
			errs <- c.CallTimeout("m", struct{}{}, &out, 5*time.Second)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errMalformedFrame) {
			t.Errorf("pending call %d: err %v, want errMalformedFrame", i, err)
		}
	}
}

// TestReadFrameLyingLengths: a tailLen larger than n leaves room for is
// malformed, and an n or tailLen that promises bytes which never arrive
// is an unexpected EOF that allocated no more than the pre-grow, not
// what the header claimed.
func TestReadFrameLyingLengths(t *testing.T) {
	header := func(n, tailLen uint32) []byte {
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], n)
		binary.BigEndian.PutUint32(hdr[15:19], tailLen)
		return hdr[:]
	}
	_, err := readFrame(bufio.NewReader(bytes.NewReader(header(frameFixedLen+10, 11))))
	if !errors.Is(err, errMalformedFrame) {
		t.Errorf("tailLen past the frame end: err %v, want errMalformedFrame", err)
	}
	for name, hdr := range map[string][]byte{
		"lying n":       header(MaxFrame, 0),
		"lying tailLen": header(MaxFrame, MaxFrame-frameFixedLen),
	} {
		input := append(hdr, "only these bytes arrived"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(bufio.NewReader(bytes.NewReader(input)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err %v, want io.ErrUnexpectedEOF", name, err)
		}
		// The pre-grow, twice over under the race detector; MaxFrame is 512x it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*preGrowCap {
			t.Errorf("%s: decoding %d real bytes allocated %d", name, len(input), grew)
		}
	}
}

// TestReadPartGrowsToFit pins what a part costs when the bulk pool
// misses: a 1 MiB part allocates at most 2 MiB, and every bulk part
// leaves a buffer of its size rounded up to a bulk step — a 4 000
// 000-byte part (a terasort block) one of 31 steps, not the 4 MiB
// Grow's doubling left. bytes.Buffer.ReadFrom's doubling costs the
// first 3.75 MiB and a 2 MiB buffer, and MinRead headroom on every step
// would push the second past maxPooledBuf.
func TestReadPartGrowsToFit(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts hold only without the race detector")
	}
	defer func(saved [maxPooledBuf / bulkBufMin]*sync.Pool) { bulkPools = saved }(bulkPools)
	for _, tc := range []struct {
		n        int
		maxAlloc uint64 // 0: not pinned
		maxCap   int
	}{
		{n: 1 << 20, maxAlloc: 2 << 20, maxCap: 2<<20 - 1},
		{n: 4_000_000, maxCap: maxPooledBuf},
	} {
		bulkPools = newBulkPools() // cold: the pool has nothing to hand out
		br := bufio.NewReaderSize(bytes.NewReader(make([]byte, tc.n)), connReadBuf)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf, err := readPart(br, int64(tc.n))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%d-byte part: %v", tc.n, err)
		}
		if buf.Len() != tc.n {
			t.Errorf("%d-byte part: read %d bytes", tc.n, buf.Len())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; tc.maxAlloc > 0 && grew > tc.maxAlloc {
			t.Errorf("%d-byte part: allocated %d B, want <= %d", tc.n, grew, tc.maxAlloc)
		}
		if buf.Cap() > tc.maxCap || buf.Cap() != bulkCap(tc.n) {
			t.Errorf("%d-byte part: buffer capacity %d, want %d", tc.n, buf.Cap(), bulkCap(tc.n))
		}
	}
}

// TestBorrowRecycle pins the bulk-buffer life cycle: Borrow below the
// bulk classes is a plain make; a Borrow the pool cannot serve allocates
// its size rounded up to a bulk step, and leaves a pooled buffer too
// small for it in the pool; a Recycled buffer is what the next Borrow
// of a size it fits gets; Recycle drops a bulk-sized buffer off the
// steps; and a frame read picks as Borrow does, so a 1 MiB part never
// lands in a pooled 4 MB buffer.
func TestBorrowRecycle(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer func(saved [maxPooledBuf / bulkBufMin]*sync.Pool) { bulkPools = saved }(bulkPools)
	bulkPools = newBulkPools()
	if p := Borrow(1000); len(p) != 1000 || cap(p) != 1000 {
		t.Fatalf("Borrow(1000) = len %d cap %d, want a plain 1000-byte make", len(p), cap(p))
	}
	small := Borrow(BulkMin)
	if len(small) != BulkMin || cap(small) != BulkMin {
		t.Fatalf("cold Borrow(BulkMin) = len %d cap %d", len(small), cap(small))
	}
	Recycle(small)
	big := Borrow(4_000_000)
	if len(big) != 4_000_000 || cap(big) != 31*BulkMin {
		t.Fatalf("Borrow(4 000 000) past a small pooled buffer = len %d cap %d, want cap %d", len(big), cap(big), 31*BulkMin)
	}
	if again := Borrow(BulkMin); &again[0] != &small[0] {
		t.Fatal("the pooled buffer too small for a block was not put back")
	}
	Recycle(big)
	if again := Borrow(3_990_000); &again[0] != &big[0] || len(again) != 3_990_000 {
		t.Fatal("a recycled block buffer was not what the next Borrow it fits got")
	}
	Recycle(make([]byte, 300_000)) // off the steps: dropped
	if p := Borrow(200_000); cap(p) != 2*BulkMin {
		t.Fatalf("Borrow(200 000) got a %d-byte buffer, want a fresh %d: an off-step buffer was pooled", cap(p), 2*BulkMin)
	}
	Recycle(big)
	part, err := readPart(bufio.NewReaderSize(bytes.NewReader(make([]byte, 1<<20)), connReadBuf), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if part.Cap() != bulkCap(1<<20) {
		t.Fatalf("a 1 MiB frame part read into a %d-byte buffer, want a fresh %d", part.Cap(), bulkCap(1<<20))
	}
	if again := Borrow(4_000_000); &again[0] != &big[0] {
		t.Fatal("the block buffer a 1 MiB frame part skipped was not put back")
	}
}

// TestCallTimeoutCoversSend: against a peer that completes the hello
// and then never reads, the call's timeout has to bound the frame write
// too — before, the write blocked under the connection's write lock
// with no deadline, and so did every call queued behind it.
func TestCallTimeoutCoversSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	var peer sync.WaitGroup
	defer peer.Wait()
	defer close(release)
	peer.Add(1)
	go func() {
		defer peer.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := readHello(bufio.NewReader(conn)); err != nil {
			return
		}
		writeHello(conn)
		<-release // never read a frame
	}()

	c, err := Dial(ln.Addr().String(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		err := c.CallTail("Put", struct{}{}, make([]byte, 32<<20), nil, 200*time.Millisecond, nil)
		done <- err
	}()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("send to a non-reading peer: error %v after %v, want a net timeout", err, time.Since(start))
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("call took %v with a 200ms timeout", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("call with a 200ms timeout still blocked in its send after 3s")
	}
	// The half-written frame cannot be resumed: the connection is failed,
	// not left for the next call to queue behind.
	c.mu.Lock()
	dead := c.conns[0].dead()
	c.mu.Unlock()
	if !dead {
		t.Error("connection still pooled after a write timeout")
	}
}

// TestTailCallAllocatesNoPayloadCopies is the property the raw tail
// exists for: once the buffer pool is warm, a call moving 1 MiB each way
// allocates a small constant, not a multiple of its payload (a gob
// []byte field cost three allocations of the payload per hop). The
// reply tail is read where it lands, in the pooled frame buffer.
func TestTailCallAllocatesNoPayloadCopies(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the ceiling holds only without it")
	}
	const size = 1 << 20
	stored := pattern(size)
	s := newTailServer(t)
	s.HandleTail("swap", func(_ []byte, tail *Tail) (any, Reply, error) {
		return len(tail.Bytes()), Reply{Bytes: stored}, nil
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got, back int
	use := func(tail []byte) error {
		back = len(tail)
		return nil
	}
	call := func() {
		err := c.CallTail("swap", struct{}{}, stored, &got, 0, use)
		if err != nil || got != size || back != size {
			t.Fatalf("swap: handler saw %d bytes, %d came back, err %v", got, back, err)
		}
	}
	for i := 0; i < 8; i++ {
		call() // warm the pool
	}
	const calls = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / (calls * 2 * size)
	t.Logf("%.4f B allocated per payload byte", perByte)
	if perByte >= 0.1 {
		t.Errorf("a warm 1 MiB tail call allocates %.3f B per payload byte, want < 0.1", perByte)
	}
}
