package rpcnet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// nested covers what the netmr messages are built from: nested
// structs, slices, maps, pointers, byte slices and a GobEncoder.
type nested struct {
	ID    int64
	Name  string
	Parts []echoArg
	Sizes map[string]int64
	Next  *echoReply
	Raw   []byte
	At    time.Time
	Deep  [][]float64
	skip  int
}

// primedSamples is one value per shape the fuzz target and the
// equivalence tests decode into. Maps hold one key: gob writes a map in
// iteration order, so only a one-key map has a single encoding.
func primedSamples() []any {
	return []any{
		echoArg{Msg: "hello"},
		nested{ID: -7, Name: "n", Parts: []echoArg{{"a"}, {""}}, Sizes: map[string]int64{"x": 1},
			Next: &echoReply{Msg: "r"}, Raw: []byte{0, 1, 2}, At: time.Unix(1e9, 5).UTC(), Deep: [][]float64{{1.5}, nil}},
		map[string]int64{"the": 3},
		[]byte("raw bytes"),
		int64(-42),
	}
}

// freshMarshal is what rpcnet did before primed codecs: a new encoder
// per body.
func freshMarshal(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPrimedCodecsMatchFreshGob: for every sample, a warm Marshal writes
// the bytes a fresh encoder writes, pointers and all, and a warm
// Unmarshal decodes what a fresh decoder decodes.
func TestPrimedCodecsMatchFreshGob(t *testing.T) {
	for _, v := range primedSamples() {
		for _, val := range []any{v, ptrTo(v)} {
			want := freshMarshal(t, val)
			for round := 0; round < 3; round++ {
				got, err := Marshal(val)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%T round %d: Marshal = %x (err %v), fresh encoder %x", val, round, got, err, want)
				}
				primed, fresh := reflect.New(reflect.TypeOf(v)), reflect.New(reflect.TypeOf(v))
				if err := Unmarshal(got, primed.Interface()); err != nil {
					t.Fatalf("%T round %d: %v", val, round, err)
				}
				if err := gob.NewDecoder(bytes.NewReader(got)).DecodeValue(fresh); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(primed.Interface(), fresh.Interface()) {
					t.Fatalf("%T round %d: primed decode %+v, fresh %+v", val, round, primed.Elem(), fresh.Elem())
				}
			}
		}
	}
	if ct, _ := codecFor(reflect.TypeOf(&nested{})); ct == nil || len(ct.decs) == 0 {
		t.Error("a warm Unmarshal into *nested left no primed decoder behind")
	}
}

func ptrTo(v any) any {
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface()
}

// hidden has a field, but none gob would send.
type hidden struct{ n int }

// tree refers to itself, through a pointer and through a slice.
type tree struct {
	Val  int64
	Kids []tree
	Next *tree
}

// refusedTypes is one struct per shape the wire refuses, each with the
// offending component in its field Bad: a chan, func, interface and
// unsafe.Pointer, bare and under a pointer, a slice and a map value,
// and a struct with no exported fields.
func refusedTypes() []reflect.Type {
	var out []reflect.Type
	for _, bad := range []reflect.Type{
		reflect.TypeFor[chan int](), reflect.TypeFor[func()](), reflect.TypeFor[any](), reflect.TypeFor[unsafe.Pointer](),
	} {
		for _, wrap := range []func(reflect.Type) reflect.Type{
			func(t reflect.Type) reflect.Type { return t },
			reflect.PointerTo,
			reflect.SliceOf,
			func(t reflect.Type) reflect.Type { return reflect.MapOf(reflect.TypeFor[string](), t) },
		} {
			out = append(out, reflect.StructOf([]reflect.StructField{
				{Name: "ID", Type: reflect.TypeFor[int64]()}, {Name: "Bad", Type: wrap(bad)},
			}))
		}
	}
	return append(out, reflect.TypeFor[struct {
		ID  int64
		Bad hidden
	}]())
}

// TestWireRefusesWhatGobCannotCarry: Marshal, Unmarshal and Call refuse
// every refused type, value or pointer, with an error naming the field,
// and the call sends no frame; a handler whose reply is refused answers
// with a RemoteError on a connection that goes on serving. What gob
// encodes itself, an empty struct, a recursive type and a map pass.
func TestWireRefusesWhatGobCannotCarry(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var served atomic.Int64
	s.Handle("count", func([]byte) (any, error) {
		served.Add(1)
		return echoReply{Msg: "ok"}, nil
	})
	var reply atomic.Value // the reflect.Type handler "reply" answers with
	s.Handle("reply", func([]byte) (any, error) {
		return reflect.Zero(reply.Load().(reflect.Type)).Interface(), nil
	})
	c, err := Dial(s.Addr(), withPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := freshMarshal(t, struct{ ID int64 }{7}) // a fresh decoder fills ID and skips Bad

	for _, typ := range refusedTypes() {
		for _, typ := range []reflect.Type{typ, reflect.PointerTo(typ)} {
			zero := reflect.New(typ)
			checks := map[string]error{}
			_, checks["Marshal"] = Marshal(zero.Elem().Interface())
			checks["Unmarshal"] = Unmarshal(body, zero.Interface())
			checks["Call arg"] = c.Call("count", zero.Elem().Interface(), nil)
			checks["Call result"] = c.Call("count", echoArg{}, zero.Interface())
			for what, err := range checks {
				if err == nil || !strings.Contains(err.Error(), "field Bad holds") {
					t.Errorf("%s of %v: err %v, want one naming field Bad", what, typ, err)
				}
			}
			if n := served.Load(); n != 0 {
				t.Fatalf("%v: %d refused calls reached the server", typ, n)
			}

			reply.Store(typ)
			var re *RemoteError
			if err := c.Call("reply", echoArg{}, nil); !errors.As(err, &re) || !strings.Contains(re.Msg, "field Bad holds") {
				t.Errorf("a handler replying %v: err %v, want a RemoteError naming field Bad", typ, err)
			}
		}
	}
	if err := c.Call("count", echoArg{}, nil); err != nil || served.Load() != 1 {
		t.Fatalf("a call after the refusals: err %v, served %d", err, served.Load())
	}
	if _, err := Marshal(hidden{n: 1}); err == nil || !strings.Contains(err.Error(), "no exported fields") {
		t.Errorf("Marshal(hidden) err %v, want one saying it has no exported fields", err)
	}

	for _, v := range []any{time.Unix(1e9, 5).UTC(), struct{}{}, tree{Val: 1, Kids: []tree{{Val: 2}}, Next: &tree{Val: 3}}, map[string]int64{"x": 1}} {
		got, err := Marshal(v)
		if err != nil || !bytes.Equal(got, freshMarshal(t, v)) {
			t.Fatalf("Marshal(%T) = %x, err %v; want a fresh encoder's bytes", v, got, err)
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := Unmarshal(got, out.Interface()); err != nil || !reflect.DeepEqual(out.Elem().Interface(), v) {
			t.Fatalf("%T round trip = %+v, err %v", v, out.Elem(), err)
		}
	}
}

// TestFailedDecoderIsDropped: a primed decoder that returns an error may
// hold half a message, so it never goes back on the free list.
func TestFailedDecoderIsDropped(t *testing.T) {
	type victim struct{ A, B int64 }
	good, err := Marshal(victim{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	var v victim
	if err := Unmarshal(good, &v); err != nil {
		t.Fatal(err)
	}
	ct, _ := codecFor(reflect.TypeOf(&v))
	if len(ct.decs) != 1 {
		t.Fatalf("%d idle decoders after one decode, want 1", len(ct.decs))
	}
	used := ct.decs[0]
	if err := Unmarshal(good[:len(good)-1], &v); err == nil { // the value message cut short
		t.Fatal("corrupt body decoded")
	}
	if len(ct.decs) != 0 {
		t.Fatalf("%d idle decoders after a failed decode, want 0", len(ct.decs))
	}
	for i := 0; i < 3; i++ {
		if err := Unmarshal(good, &v); err != nil || v != (victim{1, 2}) {
			t.Fatalf("decode after the failure = %+v, err %v", v, err)
		}
	}
	if slices.Contains(ct.decs, used) {
		t.Error("the decoder that failed is back on the free list")
	}
}

// TestCodecCacheIsCapped: 300 distinct types, each with its own
// definition bytes, leave at most maxCodecTypes cached; the ones past
// the cap still round-trip through fresh codecs, and refused types are
// still refused.
func TestCodecCacheIsCapped(t *testing.T) {
	var added []reflect.Type
	t.Cleanup(func() {
		codecMu.Lock()
		defer codecMu.Unlock()
		for _, typ := range added {
			if _, ok := codecTypes.LoadAndDelete(typ); ok {
				codecCount--
			}
		}
	})
	for i := 0; i < 300; i++ {
		typ := reflect.StructOf([]reflect.StructField{{Name: fmt.Sprintf("F%d", i), Type: reflect.TypeOf("")}})
		added = append(added, typ, reflect.PointerTo(typ))
		v := reflect.New(typ).Elem()
		v.Field(0).SetString(fmt.Sprint(i))
		body, err := Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		out := reflect.New(typ)
		if err := Unmarshal(body, out.Interface()); err != nil || out.Elem().Field(0).String() != fmt.Sprint(i) {
			t.Fatalf("type %d: decoded %v, err %v", i, out.Elem(), err)
		}
	}
	codecMu.Lock()
	n := codecCount
	codecMu.Unlock()
	if n > maxCodecTypes {
		t.Errorf("%d cached codec types, want at most %d", n, maxCodecTypes)
	}
	refused := reflect.New(reflect.StructOf([]reflect.StructField{ // a type no other test caches
		{Name: "PastTheCap", Type: reflect.TypeFor[int64]()}, {Name: "Bad", Type: reflect.TypeFor[[]any]()},
	}))
	_, merr := Marshal(refused.Interface())
	for _, err := range []error{merr, Unmarshal(nil, refused.Interface())} {
		if err == nil || !strings.Contains(err.Error(), "field Bad holds") {
			t.Errorf("%v with the cache full: err %v, want one naming field Bad", refused.Type(), err)
		}
	}
}

// TestPrimedCodecsAllocateNothing: once warm, encoding into a reused
// buffer allocates nothing, and decoding a value with no variable-size
// fields allocates only gob's copy of the message — no codec is built,
// no type is compiled.
func TestPrimedCodecsAllocateNothing(t *testing.T) {
	type beat struct {
		Slots, Free int64
		Drain       bool
	}
	in := &beat{Slots: 4, Free: 2}
	var buf bytes.Buffer
	if err := marshalTo(&buf, in); err != nil {
		t.Fatal(err)
	}
	body := bytes.Clone(buf.Bytes())
	var out beat
	if err := Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		marshalTo(&buf, in)
	}); n != 0 {
		t.Errorf("a warm marshal allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { Unmarshal(body, &out) }); n > 1 {
		t.Errorf("a warm unmarshal allocates %.1f times", n)
	}
}

// FuzzUnmarshalPrimed: on any body, the primed path succeeds exactly
// when a fresh gob.Decoder does, and decodes the same value. Seeds are
// real bodies, so mutations land behind the cached definitions, where
// the primed decoder reads.
func FuzzUnmarshalPrimed(f *testing.F) {
	samples := primedSamples()
	for i, v := range samples {
		body, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		typ := reflect.TypeOf(samples[int(which)%len(samples)])
		for i := 0; i < 2; i++ { // the second decode finds the first's decoder
			primed, fresh := reflect.New(typ), reflect.New(typ)
			perr := Unmarshal(data, primed.Interface())
			ferr := gob.NewDecoder(bytes.NewReader(data)).DecodeValue(fresh)
			if (perr == nil) != (ferr == nil) {
				t.Fatalf("%v: primed err %v, fresh err %v", typ, perr, ferr)
			}
			if perr == nil && !reflect.DeepEqual(primed.Interface(), fresh.Interface()) {
				t.Fatalf("%v: primed %+v, fresh %+v", typ, primed.Elem(), fresh.Elem())
			}
		}
	})
}

// TestPrimedCodecsConcurrent: goroutines sharing one type's free lists
// each get a codec of their own (run with -race).
func TestPrimedCodecsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := echoArg{Msg: fmt.Sprint(g, "/", i)}
				body, err := Marshal(in)
				var out echoArg
				if err == nil {
					err = Unmarshal(body, &out)
				}
				if err != nil || out != in {
					t.Errorf("round trip of %v = %v, err %v", in, out, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
