package rpcnet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

type echoArg struct{ Msg string }
type echoReply struct{ Msg string }

func newEchoServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Handle("echo", func(body []byte) (any, error) {
		var a echoArg
		if err := Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return echoReply{Msg: a.Msg}, nil
	})
	s.Handle("fail", func([]byte) (any, error) {
		return nil, errors.New("handler exploded")
	})
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCallRoundTrip(t *testing.T) {
	s := newEchoServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	if err := c.Call("echo", echoArg{Msg: "hello"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hello" {
		t.Errorf("reply = %q", reply.Msg)
	}
}

func TestSequentialCallsOneConn(t *testing.T) {
	s := newEchoServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	for i := 0; i < 50; i++ {
		var reply echoReply
		msg := fmt.Sprintf("msg-%d", i)
		if err := c.Call("echo", echoArg{Msg: msg}, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Msg != msg {
			t.Fatalf("call %d: %q", i, reply.Msg)
		}
	}
}

func TestRemoteError(t *testing.T) {
	s := newEchoServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	err := c.Call("fail", echoArg{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected RemoteError, got %v", err)
	}
	if !strings.Contains(re.Error(), "handler exploded") {
		t.Errorf("error = %v", re)
	}
}

func TestUnknownMethod(t *testing.T) {
	s := newEchoServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	err := c.Call("nope", echoArg{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := newEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				var reply echoReply
				msg := fmt.Sprintf("w%d-%d", w, i)
				if err := c.Call("echo", echoArg{Msg: msg}, &reply); err != nil {
					errs <- err
					return
				}
				if reply.Msg != msg {
					errs <- fmt.Errorf("w%d: got %q want %q", w, reply.Msg, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestLargePayload(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handle("blob", func(body []byte) (any, error) {
		var data []byte
		if err := Unmarshal(body, &data); err != nil {
			return nil, err
		}
		return data, nil
	})
	c, _ := Dial(s.Addr())
	defer c.Close()
	blob := make([]byte, 4<<20)
	for i := range blob {
		blob[i] = byte(i * 13)
	}
	var back []byte
	if err := c.Call("blob", blob, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, blob) {
		t.Fatal("blob corrupted in transit")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := newEchoServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Error("dial after close should fail")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

// Property: Marshal/Unmarshal round-trips structured values.
func TestMarshalRoundTripProperty(t *testing.T) {
	type payload struct {
		A int64
		B string
		C []byte
		D map[string]int
	}
	f := func(a int64, b string, c []byte) bool {
		in := payload{A: a, B: b, C: c, D: map[string]int{b: int(a)}}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		var out payload
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		return out.A == in.A && out.B == in.B && bytes.Equal(out.C, in.C)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
