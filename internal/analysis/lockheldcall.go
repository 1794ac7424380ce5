package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHeldCall reports blocking operations — rpcnet calls, network or
// file I/O, time.Sleep, channel sends and receives, a select with no
// default — performed while a sync.Mutex or sync.RWMutex acquired in
// the same function is still held. This is
// the PR-3 JobTracker bug class: one slow peer inside a critical
// section stalls every other goroutine contending for the lock.
//
// The analysis is per-function and source-ordered: Lock/RLock add the
// receiver expression to the held set, Unlock/RUnlock remove it, a
// deferred Unlock keeps it held to the end of the function. Branches
// are scanned with cloned state and merged pessimistically (a lock
// possibly held counts as held). Calls to same-package functions that
// themselves perform a banned operation are flagged too, so hiding a
// dial one call deep does not evade the rule. Function literals run on
// other goroutines (go/defer) start with an empty held set.
//
// The spill package is exempt: spill.Store is the disk store, and file
// I/O under its mutex is its job, not a bug.
var LockHeldCall = &Analyzer{
	Name: "lockheldcall",
	Doc:  "report blocking calls, I/O, sleeps, channel sends and receives and default-less selects made while a mutex acquired in the same function is held",
	Run:  runLockHeldCall,
}

func runLockHeldCall(pass *Pass) error {
	if pkgNamed(pass.Pkg, "spill") {
		return nil
	}
	blocking := blockingFuncs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := &lockScanner{pass: pass, blocking: blocking}
			sc.stmts(fd.Body.List, heldLocks{})
		}
	}
	return nil
}

// heldLocks maps a lock identity ("jt.mu:w", "c.mu:r") to the position
// where it was acquired.
type heldLocks map[string]token.Pos

func (h heldLocks) clone() heldLocks {
	c := make(heldLocks, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// merge folds another branch's exit state in: a lock held on any
// incoming path counts as held.
func (h heldLocks) merge(o heldLocks) {
	for k, v := range o {
		if _, ok := h[k]; !ok {
			h[k] = v
		}
	}
}

type lockScanner struct {
	pass     *Pass
	blocking map[*types.Func]string // same-package funcs that block, with reason
}

func (sc *lockScanner) stmts(list []ast.Stmt, held heldLocks) {
	for _, s := range list {
		sc.stmt(s, held)
	}
}

func (sc *lockScanner) stmt(s ast.Stmt, held heldLocks) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		sc.expr(s.X, held)
	case *ast.SendStmt:
		sc.chanOp(s.Arrow, held, "channel send", "a full channel blocks every goroutine contending for the lock")
		sc.expr(s.Chan, held)
		sc.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			sc.expr(e, held)
		}
		for _, e := range s.Lhs {
			sc.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						sc.expr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		sc.expr(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sc.expr(e, held)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function; any other deferred call runs at return, outside
		// this source-order analysis. Arguments, though, are
		// evaluated now.
		for _, e := range s.Call.Args {
			sc.expr(e, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.stmts(fl.Body.List, heldLocks{})
		}
	case *ast.GoStmt:
		for _, e := range s.Call.Args {
			sc.expr(e, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.stmts(fl.Body.List, heldLocks{})
		}
	case *ast.BlockStmt:
		sc.stmts(s.List, held)
	case *ast.IfStmt:
		sc.stmt(s.Init, held)
		sc.expr(s.Cond, held)
		thenHeld := held.clone()
		sc.stmts(s.Body.List, thenHeld)
		elseHeld := held.clone()
		if s.Else != nil {
			sc.stmt(s.Else, elseHeld)
		}
		after := heldLocks{}
		if !terminates(s.Body.List) {
			after.merge(thenHeld)
		}
		if !ifTerminates(s.Else) {
			after.merge(elseHeld)
		}
		replace(held, after)
	case *ast.ForStmt:
		sc.stmt(s.Init, held)
		sc.expr(s.Cond, held)
		body := held.clone()
		sc.stmts(s.Body.List, body)
		sc.stmt(s.Post, body)
		held.merge(body)
	case *ast.RangeStmt:
		sc.expr(s.X, held)
		body := held.clone()
		sc.stmts(s.Body.List, body)
		held.merge(body)
	case *ast.SwitchStmt:
		sc.stmt(s.Init, held)
		sc.expr(s.Tag, held)
		sc.caseClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		sc.stmt(s.Init, held)
		sc.stmt(s.Assign, held)
		sc.caseClauses(s.Body, held)
	case *ast.SelectStmt:
		// With a default the comm clauses are how select is used for
		// non-blocking sends and receives; flagging them would punish the
		// fix. Without one the select parks until a peer is ready — a
		// long-poll's wait, say — and doing that under a lock is the bug.
		// Bodies are scanned either way.
		if !hasDefault(s) {
			sc.chanOp(s.Select, held, "select without default", "it parks until a channel is ready — release the lock first")
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := held.clone()
			sc.stmts(cc.Body, body)
			held.merge(body)
		}
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt, held)
	}
}

func (sc *lockScanner) caseClauses(body *ast.BlockStmt, held heldLocks) {
	after := held.clone() // no case may match (or no default)
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			sc.expr(e, held)
		}
		branch := held.clone()
		sc.stmts(cc.Body, branch)
		if !terminates(cc.Body) {
			after.merge(branch)
		}
	}
	replace(held, after)
}

// expr walks an expression, updating lock state on Lock/Unlock calls
// and reporting banned calls while a lock is held. Function literals
// are scanned with an empty held set — they run later, on their own
// goroutine's stack.
func (sc *lockScanner) expr(e ast.Expr, held heldLocks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.stmts(n.Body.List, heldLocks{})
			return false
		case *ast.CallExpr:
			sc.call(n, held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sc.chanOp(n.OpPos, held, "channel receive", "an empty channel blocks every goroutine contending for the lock")
			}
		}
		return true
	})
}

// chanOp reports a channel operation that can park, if a lock is held.
func (sc *lockScanner) chanOp(at token.Pos, held heldLocks, op, why string) {
	if len(held) == 0 {
		return
	}
	lock, pos := anyLock(held)
	sc.pass.Reportf(at, "%s while %s is held (acquired at line %d); %s",
		op, lock, sc.pass.Fset.Position(pos).Line, why)
}

// hasDefault reports whether the select has a default clause, i.e.
// never blocks.
func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func (sc *lockScanner) call(call *ast.CallExpr, held heldLocks) {
	f := calleeFunc(sc.pass.TypesInfo, call)
	if f == nil {
		return
	}
	// Lock-state transitions.
	if mode, acquire, ok := lockOp(f); ok {
		recv := lockRecv(call)
		key := recv + ":" + mode
		if acquire {
			held[key] = call.Pos()
		} else {
			delete(held, key)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	if reason, ok := sc.bannedCall(f); ok {
		lock, pos := anyLock(held)
		sc.pass.Reportf(call.Pos(), "call to %s (%s) while %s is held (acquired at line %d); move it outside the critical section",
			callName(call, f), reason, lock, sc.pass.Fset.Position(pos).Line)
	}
}

// bannedCall reports whether f is a blocking operation hetlint forbids
// under a lock, with a human-readable reason.
func (sc *lockScanner) bannedCall(f *types.Func) (string, bool) {
	if reason, ok := sc.blocking[f]; ok {
		return reason, true
	}
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	name := f.Name()
	recv := recvTypeName(f)
	switch {
	case pkg.Path() == "time" && recv == "" && name == "Sleep":
		return "sleeps", true
	case pkg.Path() == "os" && recv == "" && osFileFuncs[name]:
		return "file I/O", true
	case pkg.Path() == "os" && recv == "File" && osFileMethods[name]:
		return "file I/O", true
	case pkg.Path() == "net" && recv == "" && (name == "Dial" || name == "DialTimeout" || name == "Listen"):
		return "network I/O", true
	case pkg.Path() == "net" && recv == "Conn" && (name == "Read" || name == "Write"):
		return "network I/O", true
	case pkg.Path() == "net" && recv == "Listener" && name == "Accept":
		return "network I/O", true
	case pkgNamed(pkg, "rpcnet") && recv == "" && (name == "Dial" || name == "NewServer"):
		return "network I/O", true
	case pkgNamed(pkg, "rpcnet") && recv == "Client" && (name == "Call" || name == "CallTimeout" || name == "CallTail"):
		return "an RPC round-trip", true
	}
	return "", false
}

var osFileFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "ReadDir": true,
	"Rename": true,
}

var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Seek": true, "Sync": true, "Truncate": true,
}

// blockingFuncs computes the same-package closure of functions that
// perform a banned operation directly or by calling another blocking
// function — so wrapping a dial in a helper does not hide it from the
// analyzer. Operations inside go statements and function literals do
// not count (the caller does not block on them).
func blockingFuncs(pass *Pass) map[*types.Func]string {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	blocking := make(map[*types.Func]string)
	sc := &lockScanner{pass: pass, blocking: nil}
	// Seed with functions containing a banned primitive.
	for obj, fd := range decls {
		syncCalls(fd, func(call *ast.CallExpr) {
			if _, ok := blocking[obj]; ok {
				return
			}
			f := calleeFunc(pass.TypesInfo, call)
			if f == nil {
				return
			}
			if reason, ok := sc.bannedCall(f); ok {
				blocking[obj] = reason + " via " + f.Name()
			}
		})
	}
	// Propagate through same-package calls to a fixed point.
	for changed := true; changed; {
		changed = false
		for obj, fd := range decls {
			if _, ok := blocking[obj]; ok {
				continue
			}
			syncCalls(fd, func(call *ast.CallExpr) {
				if _, ok := blocking[obj]; ok {
					return
				}
				f := calleeFunc(pass.TypesInfo, call)
				if f == nil {
					return
				}
				if reason, ok := blocking[f]; ok {
					blocking[obj] = reason
					changed = true
				}
			})
		}
	}
	return blocking
}

// syncCalls visits every call expression in fd's body that executes
// synchronously on the caller's goroutine — skipping go statements,
// defers and function-literal bodies.
func syncCalls(fd *ast.FuncDecl, visit func(*ast.CallExpr)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// lockOp classifies f as a sync.Mutex/RWMutex/Locker lock-state
// transition: mode "w" or "r", acquire or release.
func lockOp(f *types.Func) (mode string, acquire, ok bool) {
	pkg := f.Pkg()
	if pkg == nil || pkg.Path() != "sync" {
		return "", false, false
	}
	switch recvTypeName(f) {
	case "Mutex", "RWMutex", "Locker":
	default:
		return "", false, false
	}
	switch f.Name() {
	case "Lock":
		return "w", true, true
	case "Unlock":
		return "w", false, true
	case "RLock":
		return "r", true, true
	case "RUnlock":
		return "r", false, true
	}
	return "", false, false
}

// lockRecv renders the receiver expression of a lock call ("jt.mu")
// as the lock's identity within one function.
func lockRecv(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X)
	}
	return "lock"
}

// recvTypeName returns the base name of f's receiver type, or "" for a
// package-level function.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// callName renders the call target for a diagnostic ("c.dialConn",
// "net.Dial").
func callName(call *ast.CallExpr, f *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return f.Name()
}

// anyLock picks a deterministic representative from the held set for
// the diagnostic message.
func anyLock(held heldLocks) (string, token.Pos) {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	name, _, _ := strings.Cut(best, ":")
	return name, held[best]
}

// terminates reports whether a statement list always transfers control
// out (return, panic, os.Exit, break/continue/goto).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || strings.HasPrefix(fun.Sel.Name, "Fatal")
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// ifTerminates extends terminates to an else-branch statement (block
// or chained if).
func ifTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return terminates(s.Body.List) && ifTerminates(s.Else)
	}
	return false
}

// replace overwrites dst's contents with src's.
func replace(dst, src heldLocks) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}
