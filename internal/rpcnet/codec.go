package rpcnet

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// Primed gob codecs. A fresh gob.Encoder writes a type's definitions
// ahead of every value, and a fresh gob.Decoder compiles the type for
// every message. So each type caches its definition bytes and free
// lists of encoders and decoders that have sent or consumed them.
// Marshal writes the definitions and has a primed encoder write the
// value message: a fresh encoder's bytes, every frame self-contained.
// Unmarshal gives a primed decoder only a body that opens with exactly
// those definitions and then a value message; any other body (a peer
// process whose gob numbered its types differently, a malformed one)
// takes a fresh decoder. A codec that errs is dropped, never reused;
// the free lists are slices, which unlike a sync.Pool survive GC.
//
// The cache also holds each type's verdict from wireCheck, the rule for
// what may cross rpcnet at all: a type it refuses is never encoded or
// decoded, primed or fresh.
const (
	maxCodecTypes = 256     // a body is decoded only by its caller's type, so a peer cannot grow the cache
	maxIdleCodecs = 16      // per free list
	maxPrimedMsg  = 8 << 10 // a codec that handled more keeps a buffer that big: drop it
)

// codecType is one cached type. err is why the type cannot cross the
// wire; ok is true when it is primed. A type that crosses but cannot be
// primed takes fresh codecs.
type codecType struct {
	err  error
	ok   bool
	zero reflect.Value // the type's zero, behind non-nil pointers
	body []byte        // a fresh encoder's body for zero
	defs []byte        // body's type definitions, which every body opens with

	mu   sync.Mutex
	encs []*primedEncoder
	decs []*primedDecoder
}

var (
	codecMu    sync.Mutex // serializes inserts
	codecTypes sync.Map   // reflect.Type → *codecType
	codecCount int        // guarded by codecMu
)

// codecFor returns t's primed codecs, nil for the fresh path, and an
// error if t cannot cross the wire. Past the cache's cap, t is checked
// on every call.
func codecFor(t reflect.Type) (*codecType, error) {
	if t == nil {
		return nil, nil // gob reports a nil value itself
	}
	v, found := codecTypes.Load(t)
	if !found {
		codecMu.Lock()
		if v, found = codecTypes.Load(t); !found && codecCount < maxCodecTypes {
			v, found = newCodecType(t), true
			codecTypes.Store(t, v)
			codecCount++
		}
		codecMu.Unlock()
	}
	if !found {
		return nil, wireCheck(t)
	}
	ct := v.(*codecType)
	if !ct.ok {
		return nil, ct.err
	}
	return ct, nil
}

// newCodecType checks t, then encodes its zero twice on one encoder:
// the first body is definitions plus value message, the second the
// value message alone.
func newCodecType(t reflect.Type) *codecType {
	if err := wireCheck(t); err != nil {
		return &codecType{err: err}
	}
	base := t
	for base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	ct := &codecType{zero: reflect.New(base).Elem()}
	for ct.zero.Type() != t {
		p := reflect.New(ct.zero.Type())
		p.Elem().Set(ct.zero)
		ct.zero = p
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if enc.EncodeValue(ct.zero) != nil {
		return ct
	}
	first := buf.Len()
	if enc.EncodeValue(ct.zero) != nil {
		return ct
	}
	ct.body = bytes.Clone(buf.Bytes()[:first])
	ct.defs = ct.body[:2*first-buf.Len()]
	ct.ok = true
	return ct
}

var (
	gobEncoder      = reflect.TypeFor[gob.GobEncoder]()
	binaryMarshaler = reflect.TypeFor[encoding.BinaryMarshaler]()
)

// wireCheck is the rule for what crosses rpcnet: no func, chan,
// interface or unsafe.Pointer anywhere in t, and no struct with fields
// but none exported. Gob silently skips a func or chan field, sends what
// an interface holds only after a gob.Register, and refuses the rest at
// the first value; this refuses them all at the first use of the type,
// with the field that broke it. A type that encodes itself (GobEncoder,
// BinaryMarshaler — gob ignores TextMarshaler) is opaque to gob and passes.
func wireCheck(t reflect.Type) error {
	field, bad := refusedPart(t, "", map[reflect.Type]bool{})
	if bad == nil {
		return nil
	}
	where, what := "it", bad.String()
	if field != "" {
		where = "field " + field
	}
	if bad.Kind() == reflect.Struct {
		what += ", a struct with no exported fields"
	}
	return fmt.Errorf("rpcnet: type %v cannot cross the wire: %s holds %s", t, where, what)
}

// refusedPart returns the first component of t that wireCheck refuses
// and the path of exported fields that reaches it; nil if none.
func refusedPart(t reflect.Type, field string, seen map[reflect.Type]bool) (string, reflect.Type) {
	if seen[t] {
		return "", nil
	}
	seen[t] = true
	pt := reflect.PointerTo(t)
	switch k := t.Kind(); {
	case k == reflect.Func || k == reflect.Chan || k == reflect.Interface || k == reflect.UnsafePointer:
		return field, t
	case t.Implements(gobEncoder) || t.Implements(binaryMarshaler) || pt.Implements(gobEncoder) || pt.Implements(binaryMarshaler):
		return "", nil
	case k == reflect.Pointer || k == reflect.Slice || k == reflect.Array:
		return refusedPart(t.Elem(), field, seen)
	case k == reflect.Map:
		if f, bad := refusedPart(t.Key(), field, seen); bad != nil {
			return f, bad
		}
		return refusedPart(t.Elem(), field, seen)
	case k == reflect.Struct:
		exported := t.NumField() == 0
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() {
				exported = true
				if f, bad := refusedPart(f.Type, strings.TrimPrefix(field+"."+f.Name, "."), seen); bad != nil {
					return f, bad
				}
			}
		}
		if !exported {
			return field, t
		}
	}
	return "", nil
}

// primedEncoder has sent its type's definitions; it writes to out,
// which the caller points at its buffer.
type primedEncoder struct {
	enc *gob.Encoder
	out *bytes.Buffer
}

func (pe *primedEncoder) Write(p []byte) (int, error) { return pe.out.Write(p) }

// primedDecoder has consumed its type's definitions; it reads from in.
type primedDecoder struct {
	dec *gob.Decoder
	in  bytes.Reader
}

func (ct *codecType) primeEncoder() (*primedEncoder, error) {
	pe := &primedEncoder{out: new(bytes.Buffer)}
	pe.enc = gob.NewEncoder(pe)
	return pe, pe.enc.EncodeValue(ct.zero)
}

func (ct *codecType) primeDecoder() (*primedDecoder, error) {
	pd := &primedDecoder{}
	pd.in.Reset(ct.body)
	pd.dec = gob.NewDecoder(&pd.in)
	return pd, pd.dec.DecodeValue(reflect.New(ct.zero.Type()))
}

// take pops a codec off list or primes a new one; !ok if priming fails.
func take[C any](ct *codecType, list *[]C, prime func() (C, error)) (c C, ok bool) {
	ct.mu.Lock()
	if n := len(*list); n > 0 {
		c = (*list)[n-1]
		*list = (*list)[:n-1]
		ct.mu.Unlock()
		return c, true
	}
	ct.mu.Unlock()
	c, err := prime()
	return c, err == nil
}

// release returns a codec that just handled n bytes to list.
func release[C any](ct *codecType, list *[]C, c C, n int) {
	ct.mu.Lock()
	if n <= maxPrimedMsg && len(*list) < maxIdleCodecs {
		*list = append(*list, c)
	}
	ct.mu.Unlock()
}

// Marshal gob-encodes v: exactly the bytes a fresh gob.Encoder writes.
// It refuses a type that cannot cross the wire (wireCheck), naming the
// field.
func Marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := marshalTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// marshalTo appends v's gob encoding to buf — the pooled-buffer encode
// path Call and the server dispatcher use.
func marshalTo(buf *bytes.Buffer, v any) error {
	ct, err := codecFor(reflect.TypeOf(v))
	if err != nil {
		return err
	}
	if ct == nil {
		err = gob.NewEncoder(buf).Encode(v)
	} else if pe, ok := take(ct, &ct.encs, ct.primeEncoder); !ok {
		err = gob.NewEncoder(buf).Encode(v)
	} else {
		start := buf.Len()
		buf.Write(ct.defs)
		pe.out = buf
		err = pe.enc.Encode(v)
		pe.out = nil
		if err == nil {
			release(ct, &ct.encs, pe, buf.Len()-start)
		}
	}
	if err != nil {
		return fmt.Errorf("rpcnet: encode: %w", err)
	}
	return nil
}

// Unmarshal gob-decodes data into v (a pointer). Unless it refuses v's
// type as Marshal does, it succeeds exactly when a fresh gob.Decoder
// does, with the same result.
func Unmarshal(data []byte, v any) error {
	ct, err := codecFor(reflect.TypeOf(v))
	if err != nil {
		return err
	}
	if ct == nil || !valueFollows(data, ct.defs) {
		err = gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	} else if pd, ok := take(ct, &ct.decs, ct.primeDecoder); !ok {
		err = gob.NewDecoder(bytes.NewReader(data)).Decode(v)
	} else {
		pd.in.Reset(data[len(ct.defs):])
		err = pd.dec.Decode(v)
		pd.in.Reset(nil)
		if err == nil {
			release(ct, &ct.decs, pd, len(data))
		}
	}
	if err != nil {
		return fmt.Errorf("rpcnet: decode: %w", err)
	}
	return nil
}

// valueFollows reports whether data is defs followed by a value message,
// not one more type definition: a primed decoder must never learn a
// type, or it would stop matching a fresh one.
func valueFollows(data, defs []byte) bool {
	rest, ok := bytes.CutPrefix(data, defs)
	n := uintLen(rest) // the message's byte count
	if !ok || n == 0 {
		return false
	}
	m := uintLen(rest[n:]) // its type id, sign in bit 0
	return m > 0 && rest[n+m-1]&1 == 0
}

// uintLen is the length of the gob unsigned integer p opens with, 0 if
// p holds none. A first byte of 0x80 or more negates the count of bytes
// that follow.
func uintLen(p []byte) int {
	if len(p) == 0 || p[0] < 0x80 {
		return min(len(p), 1)
	}
	if n := 257 - int(p[0]); n <= min(9, len(p)) {
		return n
	}
	return 0
}
