package rpcnet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// Primed gob codecs. A fresh gob.Encoder writes a type's definitions
// ahead of every value, and a fresh gob.Decoder compiles the type for
// every message. So each type whose encoding holds no interface (its
// bytes then depend on the value alone) caches its definition bytes and
// free lists of encoders and decoders that have sent or consumed them.
// Marshal writes the definitions and has a primed encoder write the
// value message: a fresh encoder's bytes, every frame self-contained.
// Unmarshal gives a primed decoder only a body that opens with exactly
// those definitions and then a value message; any other body (a peer
// process whose gob numbered its types differently, a malformed one)
// takes a fresh decoder. A codec that errs is dropped, never reused;
// the free lists are slices, which unlike a sync.Pool survive GC.
const (
	maxCodecTypes = 256     // a body is decoded only by its caller's type, so a peer cannot grow the cache
	maxIdleCodecs = 16      // per free list
	maxPrimedMsg  = 8 << 10 // a codec that handled more keeps a buffer that big: drop it
)

// codecType is one cached type; ok is false when the type cannot be
// primed, and its bodies take fresh codecs.
type codecType struct {
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

// codecFor returns t's primed codecs, nil for the fresh path.
func codecFor(t reflect.Type) *codecType {
	if t == nil {
		return nil
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
	if ct, _ := v.(*codecType); found && ct.ok {
		return ct
	}
	return nil
}

// newCodecType encodes t's zero twice on one encoder: the first body is
// definitions plus value message, the second the value message alone.
func newCodecType(t reflect.Type) *codecType {
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
	if holdsInterface(base, map[reflect.Type]bool{}) || enc.EncodeValue(ct.zero) != nil {
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

// holdsInterface reports whether t's gob encoding can hold an interface.
func holdsInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holdsInterface(t.Elem(), seen)
	case reflect.Map:
		return holdsInterface(t.Key(), seen) || holdsInterface(t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			return false
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && holdsInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
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
	var err error
	if ct := codecFor(reflect.TypeOf(v)); ct == nil {
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

// Unmarshal gob-decodes data into v (a pointer). It succeeds exactly
// when a fresh gob.Decoder does, with the same result.
func Unmarshal(data []byte, v any) error {
	var err error
	if ct := codecFor(reflect.TypeOf(v)); ct == nil || !valueFollows(data, ct.defs) {
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
