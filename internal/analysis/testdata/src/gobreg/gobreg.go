// Package gobreg is the positive fixture for the gobreg analyzer: no
// gob.Register call exists here, so the interface-typed component must
// be reported, along with the structural encodability violations.
package gobreg

import "rpcnet"

// Good is a cleanly encodable message.
type Good struct {
	A int
	B string
}

// HasFunc smuggles a func through an exported field.
type HasFunc struct {
	F func()
}

// HasChan smuggles a channel through a nested exported field.
type HasChan struct {
	Inner struct {
		C chan int
	}
}

// NoExported has fields, none of them visible to gob.
type NoExported struct {
	x int
}

// HasIface carries an interface-typed component that would need a
// gob.Register somewhere in the program.
type HasIface struct {
	V any
}

var c *rpcnet.Client

func bad() {
	c.Call("m", HasFunc{}, &Good{})  // want `not gob-encodable: gob cannot encode funcs`
	c.Call("m", &HasChan{}, &Good{}) // want `gob cannot encode channels`
	c.Call("m", Good{}, Good{})      // want `reply has non-pointer type`
	rpcnet.Marshal(NoExported{})     // want `struct has no exported fields`
	rpcnet.Unmarshal(nil, Good{})    // want `non-pointer`
	c.Call("m", HasIface{}, nil)     // want `no gob\.Register call in the program`
}

func good() {
	c.Call("m", Good{}, &Good{})
	c.Call("m", &Good{}, nil)
	rpcnet.Marshal(&Good{})
	var g Good
	rpcnet.Unmarshal(nil, &g)
}

// via hands its own parameters to the wire, so its call sites are where
// the concrete types show; via2 is a helper over that helper.
func via(method string, args, reply any) error { return c.Call(method, args, reply) }
func via2(args, reply any) error               { return via("m", args, reply) }

func forwarded() {
	via("m", HasFunc{}, &Good{}) // want `via argument of type .* gob cannot encode funcs`
	via2(Good{}, Good{})         // want `via2 reply has non-pointer type`
	via("m", Good{}, &Good{})
}

// CallTail's gob values sit at different positions — its raw tail and
// dst never meet gob — and bulk forwards over it.
func bulk(method string, args any, tail []byte, reply any, dst []byte) ([]byte, error) {
	return c.CallTail(method, args, tail, reply, dst, 0)
}

func tailed() {
	c.CallTail("m", HasFunc{}, nil, &Good{}, nil, 0) // want `CallTail argument of type .* gob cannot encode funcs`
	c.CallTail("m", Good{}, nil, Good{}, nil, 0)     // want `CallTail reply has non-pointer type`
	bulk("m", &HasChan{}, nil, nil, nil)             // want `bulk argument of type .* gob cannot encode channels`
	bulk("m", Good{}, []byte("tail"), &Good{}, nil)
}

// decode's type parameter carries no registration obligation itself.
func decode[A any](body []byte, a *A) error { return rpcnet.Unmarshal(body, a) }

func suppressed() {
	rpcnet.Marshal(HasFunc{}) //hetlint:ignore gobreg fixture: proves the directive works
}
