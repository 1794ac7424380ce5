package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ConfigDrop verifies that every exported field of the engine
// package's Config and Job types is actually consumed by every
// registered backend — read somewhere in the backend's code, or
// explicitly acknowledged with a //hetlint:configdrop-ok directive
// (whose natural companion is an ErrUnsupported rejection or a
// documented no-op). This automates what TestNoSilentConfigDrop only
// samples: the PR-4/PR-6 bug class where a new knob works on one
// backend and is silently ignored on the others.
//
// The analyzer triggers on any package that declares both a Register
// function and a Config type (the engine package; fixtures mimic the
// shape). For each Register("name", factory) call it computes the
// backend's reference closure: the factory literal, every same-package
// function it (transitively) mentions, and every method of any
// package-local type it constructs via a composite literal — which is
// how runner methods reached only through interface dispatch are
// included. A Config/Job field selected anywhere in that closure
// counts as referenced.
//
// Acknowledged drops use
//
//	//hetlint:configdrop-ok <backend|*> <Field|Type.Field> [reason]
//
// anywhere in the package. The directives are a debt count, so one that
// excuses nothing is itself a finding: its backend is not registered,
// its field does not exist, or the backend does read the field (or an
// earlier directive already covers it).
var ConfigDrop = &Analyzer{
	Name: "configdrop",
	Doc:  "report exported Config/Job fields that a registered backend neither reads nor explicitly acknowledges",
	Run:  runConfigDrop,
}

func runConfigDrop(pass *Pass) error {
	registerFn, _ := pass.Pkg.Scope().Lookup("Register").(*types.Func)
	cfgType := lookupNamedStruct(pass.Pkg, "Config")
	if registerFn == nil || cfgType == nil {
		return nil
	}
	jobType := lookupNamedStruct(pass.Pkg, "Job")

	decls := packageFuncDecls(pass)
	acks := configAcks(pass)
	registered := make(map[string]bool) // backend names seen in Register calls
	fields := make(map[string]bool)     // every exported "Field" and "Type.Field"

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if calleeFunc(pass.TypesInfo, call) != registerFn || len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true
			}
			backend, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			registered[backend] = true
			refs := backendFieldRefs(pass, decls, call.Args[1])
			for _, tn := range []*types.Named{cfgType, jobType} {
				if tn == nil {
					continue
				}
				st := tn.Underlying().(*types.Struct)
				typeName := tn.Obj().Name()
				var missing []string
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					if !fld.Exported() {
						continue
					}
					fields[fld.Name()], fields[typeName+"."+fld.Name()] = true, true
					if refs[typeName+"."+fld.Name()] {
						continue
					}
					if acks.ok(backend, typeName, fld.Name()) {
						continue
					}
					missing = append(missing, fld.Name())
				}
				if len(missing) > 0 {
					pass.Reportf(call.Pos(), "backend %q never references %s.%s — the knob is silently dropped; consume it, reject it with ErrUnsupported, or acknowledge it with //hetlint:configdrop-ok %s %s.%s",
						backend, typeName, strings.Join(missing, ", "+typeName+"."), backend, typeName, missing[0])
				}
			}
			return true
		})
	}
	for _, a := range acks {
		switch {
		case a.used:
		case a.backend != "*" && !registered[a.backend]:
			pass.Reportf(a.pos, "configdrop-ok names backend %q, which is not registered — delete the directive", a.backend)
		case !fields[a.field]:
			pass.Reportf(a.pos, "configdrop-ok names %s, which is no exported field of Config or Job — delete the directive", a.field)
		default:
			pass.Reportf(a.pos, "configdrop-ok %s %s excuses nothing: the field is read, or an earlier directive covers it — delete the directive", a.backend, a.field)
		}
	}
	return nil
}

// lookupNamedStruct finds a package-level named struct type.
func lookupNamedStruct(pkg *types.Package, name string) *types.Named {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// packageFuncDecls maps every function and method object declared in
// the package to its syntax.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// backendFieldRefs computes the set of "Type.Field" strings the
// backend's reference closure reads.
func backendFieldRefs(pass *Pass, decls map[types.Object]*ast.FuncDecl, factory ast.Expr) map[string]bool {
	refs := make(map[string]bool)
	inClosure := make(map[types.Object]bool)
	var queue []ast.Node

	enqueueObj := func(obj types.Object) {
		if obj == nil || inClosure[obj] {
			return
		}
		if fd, ok := decls[obj]; ok {
			inClosure[obj] = true
			queue = append(queue, fd.Body)
		}
	}

	scan := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj, ok := pass.TypesInfo.Uses[n].(*types.Func); ok && obj.Pkg() == pass.Pkg {
					enqueueObj(obj)
				}
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok {
					if fld, ok := sel.Obj().(*types.Var); ok && fld.IsField() {
						if owner := namedRecvOf(sel.Recv()); owner != nil && owner.Obj().Pkg() == pass.Pkg {
							refs[owner.Obj().Name()+"."+fld.Name()] = true
						}
					}
					if m, ok := sel.Obj().(*types.Func); ok && m.Pkg() == pass.Pkg {
						enqueueObj(m)
					}
				}
			case *ast.CompositeLit:
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Type != nil {
					if named := namedRecvOf(tv.Type); named != nil && named.Obj().Pkg() == pass.Pkg {
						// Constructing a local type pulls in all its
						// methods: runners are reached through
						// interface dispatch, not direct calls.
						for i := 0; i < named.NumMethods(); i++ {
							enqueueObj(named.Method(i))
						}
					}
				}
			}
			return true
		})
	}

	// Seed: the factory expression itself (a func literal, or a named
	// package function).
	switch fe := ast.Unparen(factory).(type) {
	case *ast.FuncLit:
		queue = append(queue, fe)
	case *ast.Ident:
		enqueueObj(pass.TypesInfo.Uses[fe])
	default:
		queue = append(queue, fe)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		scan(n)
	}
	return refs
}

// namedRecvOf strips pointers and returns the named type, if any.
func namedRecvOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ack is one parsed //hetlint:configdrop-ok directive. field is as
// written, "Field" or "Type.Field"; used records that the directive
// suppressed at least one finding.
type ack struct {
	pos            token.Pos
	backend, field string
	used           bool
}

type ackSet []*ack

func (a ackSet) ok(backend, typeName, field string) bool {
	for _, k := range a {
		if (k.backend == backend || k.backend == "*") && (k.field == field || k.field == typeName+"."+field) {
			k.used = true
			return true
		}
	}
	return false
}

// configAcks collects acknowledged-drop directives from the package's
// comments.
func configAcks(pass *Pass) ackSet {
	var acks ackSet
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//hetlint:configdrop-ok")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue
				}
				acks = append(acks, &ack{pos: c.Pos(), backend: fields[0], field: fields[1]})
			}
		}
	}
	return acks
}
