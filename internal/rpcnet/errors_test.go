package rpcnet

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestMarshalUnencodable(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Error("marshalling a channel should fail")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var out int
	if err := Unmarshal([]byte{0xde, 0xad}, &out); err == nil {
		t.Error("decoding garbage should fail")
	}
}

func TestHandlerResultMarshalError(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("bad", func([]byte) (any, error) {
		return make(chan int), nil // unencodable result
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("bad", 1, nil); err == nil {
		t.Error("unencodable handler result should surface as an error")
	}
}

func TestHandlerBadArgument(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("typed", func(body []byte) (any, error) {
		var v struct{ N int }
		if err := Unmarshal(body, &v); err != nil {
			return nil, err
		}
		return v.N, nil
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send a string where a struct is expected.
	err = c.Call("typed", "not-a-struct", nil)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Errorf("type mismatch error = %v", err)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Handle("echo", func(b []byte) (any, error) { return b, nil })
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	if err := c.Call("echo", 1, nil); err == nil {
		t.Error("call after server close should fail")
	}
}

// TestOversizeReplyIsAnErrorNotASilence: the frame writer refuses a frame
// above MaxFrame before writing a byte, so the connection stays healthy
// — the server must answer the caller's ID with an error frame instead
// of leaving the call to wait out its timeout, and the same client keeps
// working afterwards.
func TestOversizeReplyIsAnErrorNotASilence(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~300 MB for a reply above MaxFrame; skipped in -short")
	}
	s := newEchoServer(t)
	s.Handle("huge", func([]byte) (any, error) {
		return make([]byte, MaxFrame+1), nil
	})
	// A tail that fits MaxFrame alone but not behind its frame's header
	// and body: the bound is on the whole frame.
	s.HandleTail("hugeTail", func([]byte, *Tail) (any, Reply, error) {
		return echoReply{Msg: "body"}, Reply{Bytes: make([]byte, MaxFrame-frameFixedLen)}, nil
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Encoding the reply takes ~0.2 s alone and seconds under -race on a
	// loaded machine; the silent drop this pins took the whole timeout.
	for _, method := range []string{"huge", "hugeTail"} {
		start := time.Now()
		err = c.CallTail(method, echoArg{}, nil, nil, 20*time.Second, nil)
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "response to "+method+": frame too large") {
			t.Fatalf("oversize reply: error %v after %v, want a RemoteError naming the unframeable response", err, time.Since(start))
		}
	}
	var reply echoReply
	if err := c.Call("echo", echoArg{Msg: "still here"}, &reply); err != nil || reply.Msg != "still here" {
		t.Fatalf("call after the oversize reply = %q, %v", reply.Msg, err)
	}
}
