package rpcnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
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
	if ct := codecFor(reflect.TypeOf(&nested{})); ct == nil || len(ct.decs) == 0 {
		t.Error("a warm Unmarshal into *nested left no primed decoder behind")
	}
}

func ptrTo(v any) any {
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface()
}

// TestPrimedCodecsSkipInterfaces: a type holding an interface encodes
// differently once its encoder has sent the concrete type, so it is
// never primed — and still round-trips.
func TestPrimedCodecsSkipInterfaces(t *testing.T) {
	type boxed struct{ V any }
	gob.Register(echoArg{})
	if codecFor(reflect.TypeOf(boxed{})) != nil {
		t.Fatal("a struct with an interface field was primed")
	}
	for i := 0; i < 2; i++ {
		body, err := Marshal(boxed{V: echoArg{Msg: "x"}})
		if err != nil || !bytes.Equal(body, freshMarshal(t, boxed{V: echoArg{Msg: "x"}})) {
			t.Fatalf("Marshal = %x, err %v", body, err)
		}
		var out boxed
		if err := Unmarshal(body, &out); err != nil || out.V != (echoArg{Msg: "x"}) {
			t.Fatalf("round trip = %+v, err %v", out, err)
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
	ct := codecFor(reflect.TypeOf(&v))
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
// the cap still round-trip through fresh codecs.
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
