package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GobReg checks every value that flows into the gob wire layer —
// arguments and replies of rpcnet Client.Call/CallTimeout/CallTail (and of a
// package's own helpers over them, see wireForwarders), and values
// passed to rpcnet Marshal/Unmarshal — for static encodability,
// catching at lint time what gob otherwise reports as a runtime error
// mid-job:
//
//   - components gob cannot encode (func, chan, unsafe.Pointer)
//     reachable through exported fields;
//   - struct types with fields but no exported ones (gob encodes
//     nothing, the receiver sees a zero value);
//   - decode targets that are not pointers;
//   - interface-typed components with no gob.Register call anywhere in
//     the program providing a concrete implementation (resolved
//     program-wide in the Finish pass, since registrations and call
//     sites live in different packages).
var GobReg = &Analyzer{
	Name: "gobreg",
	Doc:  "check rpcnet call arguments and gob frame bodies for static gob-encodability and required gob.Register calls",
	Run:  runGobReg,
	Finish: func(prog *Program, shared map[string]any, report func(Diagnostic)) {
		finishGobReg(prog, shared, report)
	},
}

// gobObligation is an interface-typed wire component whose concrete
// implementations must be gob-registered somewhere in the program.
type gobObligation struct {
	iface types.Type
	pos   token.Position
	where string
}

const (
	sharedGobRegistered  = "gobreg.registered"  // map[string]types.Type
	sharedGobObligations = "gobreg.obligations" // []gobObligation
)

func runGobReg(pass *Pass) error {
	registered, _ := pass.Shared[sharedGobRegistered].(map[string]types.Type)
	if registered == nil {
		registered = make(map[string]types.Type)
		pass.Shared[sharedGobRegistered] = registered
	}
	seenMsg := make(map[string]bool) // dedupe per package: one report per (type, problem)
	fwd := wireForwarders(pass)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "encoding/gob" && (fn.Name() == "Register" || fn.Name() == "RegisterName"):
				argIdx := 0
				if fn.Name() == "RegisterName" {
					argIdx = 1
				}
				if len(call.Args) > argIdx {
					if t := pass.TypesInfo.Types[call.Args[argIdx]].Type; t != nil {
						registered[t.String()] = t
					}
				}
			case pkgNamed(fn.Pkg(), "rpcnet") && recvTypeName(fn) == "" && fn.Name() == "Marshal":
				if len(call.Args) == 1 {
					checkGobValue(pass, seenMsg, call.Args[0], "Marshal argument", false)
				}
			case pkgNamed(fn.Pkg(), "rpcnet") && recvTypeName(fn) == "" && fn.Name() == "Unmarshal":
				if len(call.Args) == 2 {
					checkGobValue(pass, seenMsg, call.Args[1], "Unmarshal target", true)
				}
			default:
				if arg, reply, ok := wireParams(fn, fwd); ok && len(call.Args) > reply {
					checkGobValue(pass, seenMsg, call.Args[arg], fn.Name()+" argument", false)
					checkGobValue(pass, seenMsg, call.Args[reply], fn.Name()+" reply", true)
				}
			}
			return true
		})
	}
	return nil
}

// wireParams reports which arguments of a call to fn are a wire call's
// gob-encoded argument and its decode target: Client.Call's,
// CallTimeout's and CallTail's own (CallTail's raw tail and dst sit
// between and behind them and never meet gob), or those a forwarder
// passes on to them.
func wireParams(fn *types.Func, fwd map[*types.Func][2]int) (arg, reply int, ok bool) {
	if pkgNamed(fn.Pkg(), "rpcnet") && recvTypeName(fn) == "Client" {
		switch fn.Name() {
		case "Call", "CallTimeout":
			return 1, 2, true
		case "CallTail":
			return 1, 3, true
		}
	}
	ix, ok := fwd[fn]
	return ix[0], ix[1], ok
}

// wireForwarders finds the package's helpers over Client.Call:
// functions that pass two of their own parameters on as a wire call's
// argument and reply. Those parameters are typed any, so the concrete
// types — and the reply's pointer-ness — show only at the helper's call
// sites, which are then checked like Call's own. Found to a fixpoint, so
// a helper over a helper counts.
func wireForwarders(pass *Pass) map[*types.Func][2]int {
	fwd := make(map[*types.Func][2]int)
	for grew := true; grew; {
		grew = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				if fd == nil || fd.Body == nil {
					continue
				}
				self, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if _, known := fwd[self]; self == nil || known {
					continue
				}
				params := self.Type().(*types.Signature).Params()
				ownParam := func(e ast.Expr) int {
					id, _ := ast.Unparen(e).(*ast.Ident)
					for i := 0; id != nil && i < params.Len(); i++ {
						if pass.TypesInfo.Uses[id] == params.At(i) {
							return i
						}
					}
					return -1
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, _ := n.(*ast.CallExpr)
					if call == nil {
						return true
					}
					if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
						if arg, reply, ok := wireParams(fn, fwd); ok && len(call.Args) > reply {
							if a, r := ownParam(call.Args[arg]), ownParam(call.Args[reply]); a >= 0 && r >= 0 {
								fwd[self] = [2]int{a, r}
								grew = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return fwd
}

// checkGobValue validates one expression handed to the gob layer.
// isTarget marks decode destinations, which must be pointers.
func checkGobValue(pass *Pass, seen map[string]bool, e ast.Expr, where string, isTarget bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if tv.IsNil() {
		return
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		// Static type is already an interface (a forwarded `any`):
		// the concrete type is unknown here, some other site checks it.
		return
	}
	if isTarget {
		if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
			reportOnce(pass, seen, e.Pos(), t, where,
				"%s has non-pointer type %s; gob decode needs a pointer, the callee will return an error", where, t)
			return
		}
	}
	if path, bad := unencodableComponent(t, nil); bad != "" {
		reportOnce(pass, seen, e.Pos(), t, where+"/"+bad,
			"%s of type %s is not gob-encodable: %s (%s)", where, t, bad, path)
	}
	for _, ob := range interfaceComponents(t, nil) {
		obs, _ := pass.Shared[sharedGobObligations].([]gobObligation)
		pass.Shared[sharedGobObligations] = append(obs, gobObligation{
			iface: ob.iface,
			pos:   pass.Fset.Position(e.Pos()),
			where: fmt.Sprintf("%s of type %s (component %s)", where, t, ob.path),
		})
	}
}

func reportOnce(pass *Pass, seen map[string]bool, pos token.Pos, t types.Type, key, format string, args ...any) {
	k := t.String() + "|" + key
	if seen[k] {
		return
	}
	seen[k] = true
	pass.Reportf(pos, format, args...)
}

// unencodableComponent walks t's exported structure looking for a
// component gob cannot encode. It returns a dotted field path and a
// description, or "", "" when t is statically encodable.
func unencodableComponent(t types.Type, seen []types.Type) (path, problem string) {
	for _, s := range seen {
		if types.Identical(s, t) {
			return "", ""
		}
	}
	seen = append(seen, t)
	if hasSelfEncoder(t) {
		return "", ""
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return typeLabel(t), "gob cannot encode funcs"
	case *types.Chan:
		return typeLabel(t), "gob cannot encode channels"
	case *types.Pointer:
		return unencodableComponent(u.Elem(), seen)
	case *types.Slice:
		p, prob := unencodableComponent(u.Elem(), seen)
		return prefixPath("[]", p, prob)
	case *types.Array:
		p, prob := unencodableComponent(u.Elem(), seen)
		return prefixPath("[n]", p, prob)
	case *types.Map:
		if p, prob := unencodableComponent(u.Key(), seen); prob != "" {
			return "map key " + p, prob
		}
		p, prob := unencodableComponent(u.Elem(), seen)
		return prefixPath("map value ", p, prob)
	case *types.Struct:
		exported := 0
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			exported++
			if p, prob := unencodableComponent(f.Type(), seen); prob != "" {
				return f.Name() + dotPath(p), prob
			}
		}
		if exported == 0 && u.NumFields() > 0 {
			return typeLabel(t), "struct has no exported fields, gob encodes nothing"
		}
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return typeLabel(t), "gob cannot encode unsafe.Pointer"
		}
	}
	return "", ""
}

// ifaceComponent is one interface-typed piece of a wire value.
type ifaceComponent struct {
	iface types.Type
	path  string
}

// interfaceComponents lists the interface-typed components reachable
// through t's exported structure — each needs a registered concrete
// implementation for gob to work at runtime.
func interfaceComponents(t types.Type, seen []types.Type) []ifaceComponent {
	for _, s := range seen {
		if types.Identical(s, t) {
			return nil
		}
	}
	seen = append(seen, t)
	if hasSelfEncoder(t) {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if _, generic := t.(*types.TypeParam); generic {
			return nil // stands for concrete types, checked where a caller passes them to Call
		}
		return []ifaceComponent{{iface: t, path: typeLabel(t)}}
	case *types.Pointer:
		return interfaceComponents(u.Elem(), seen)
	case *types.Slice:
		return interfaceComponents(u.Elem(), seen)
	case *types.Array:
		return interfaceComponents(u.Elem(), seen)
	case *types.Map:
		return append(interfaceComponents(u.Key(), seen), interfaceComponents(u.Elem(), seen)...)
	case *types.Struct:
		var out []ifaceComponent
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				continue
			}
			for _, c := range interfaceComponents(f.Type(), seen) {
				c.path = f.Name() + dotPath(c.path)
				out = append(out, c)
			}
		}
		return out
	}
	return nil
}

// hasSelfEncoder reports whether t encodes itself via GobEncoder,
// BinaryMarshaler or TextMarshaler — gob defers to those, so their
// internals are exempt from the structural walk.
func hasSelfEncoder(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if _, isPtr := t.(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "GobEncode", "MarshalBinary", "MarshalText":
			return true
		}
	}
	return false
}

// finishGobReg resolves interface obligations against the program-wide
// set of gob.Register calls.
func finishGobReg(prog *Program, shared map[string]any, report func(Diagnostic)) {
	registered, _ := shared[sharedGobRegistered].(map[string]types.Type)
	obs, _ := shared[sharedGobObligations].([]gobObligation)
	seen := make(map[string]bool)
	for _, ob := range obs {
		iface, ok := ob.iface.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		satisfied := false
		if iface.Empty() && len(registered) > 0 {
			satisfied = true
		} else {
			for _, rt := range registered {
				if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
					satisfied = true
					break
				}
			}
		}
		if satisfied {
			continue
		}
		key := ob.iface.String() + "|" + ob.where
		if seen[key] {
			continue
		}
		seen[key] = true
		report(Diagnostic{
			Analyzer: "gobreg",
			Pos:      ob.pos,
			Message: fmt.Sprintf("%s is interface-typed but no gob.Register call in the program provides a concrete %s implementation; decoding will fail at runtime",
				ob.where, typeLabel(ob.iface)),
		})
	}
}

func typeLabel(t types.Type) string {
	s := t.String()
	if i := strings.LastIndex(s, "/"); i >= 0 && !strings.ContainsAny(s[i:], "]) ") {
		s = s[i+1:]
	}
	return s
}

func prefixPath(prefix string, path, problem string) (string, string) {
	if problem == "" {
		return "", ""
	}
	return prefix + path, problem
}

func dotPath(p string) string {
	if p == "" {
		return ""
	}
	return "." + p
}
