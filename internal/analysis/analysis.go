// Package analysis is hetmr's project-invariant analyzer suite: three
// custom static analyzers encoding the rules this codebase keeps
// re-learning the hard way, runnable over the whole module by
// cmd/hetlint and unit-tested against fixtures by the analysistest
// subpackage.
//
// The analyzers:
//
//   - lockheldcall: no blocking operation — rpcnet calls, network or
//     file I/O, time.Sleep, channel sends — while a sync.Mutex or
//     RWMutex acquired in the same function is held (the PR-3
//     JobTracker bug class).
//   - configdrop: every exported engine.Config / engine.Job field must
//     be referenced by each registered backend's code or explicitly
//     acknowledged — silently dropped knobs (the PR-4/PR-6 bug class)
//     fail the build.
//   - mustclose: values from module constructors whose type has a
//     Close/Stop method must be closed on every path, including early
//     error returns (the PR-5/PR-7 leak class).
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// suite could be rebased onto the real framework when an external
// dependency is acceptable; here it is pure standard library — the
// loader type-checks the module and its stdlib imports from source, so
// the lint lane needs no module downloads at all.
//
// Two comment directives tune the suite:
//
//	//hetlint:ignore <analyzer> [reason]
//
// on (or immediately above) the offending line suppresses one finding;
//
//	//hetlint:configdrop-ok <backend> <Type.Field> [reason]
//
// anywhere in the engine package acknowledges a deliberately ignored
// config knob (see configdrop).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check: a name, documentation and a
// per-package Run pass.
type Analyzer struct {
	// Name identifies the analyzer in reports and in
	// //hetlint:ignore directives.
	Name string
	// Doc is the one-paragraph description hetlint -list prints.
	Doc string
	// Run analyzes one package. It reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package, mirroring
// x/tools/go/analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the program.
	Fset *token.FileSet
	// Files are the package's parsed files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the package's type-checking facts.
	TypesInfo *types.Info
	// Prog is the whole loaded program (module packages only).
	Prog *Program

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the rule that fired.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation and, where possible, the fix.
	Message string
}

// String renders the diagnostic in the standard file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run executes the analyzers over every module package of prog in
// dependency order, applies //hetlint:ignore suppressions, and returns
// the surviving findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
				Prog:      prog,
				report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = prog.filterSuppressed(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// All returns the full hetlint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{LockHeldCall, ConfigDrop, MustClose}
}

// filterSuppressed drops findings whose line (or the line above) holds
// a //hetlint:ignore directive naming the analyzer (or naming no
// analyzer, which suppresses everything on the line).
func (prog *Program) filterSuppressed(diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	suppressed := make(map[key][]string)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//hetlint:ignore")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					names := strings.Fields(rest)
					if len(names) > 0 {
						names = names[:1] // first word names the analyzer
					}
					k := key{pos.Filename, pos.Line}
					suppressed[k] = append(suppressed[k], names...)
					if len(names) == 0 {
						suppressed[k] = append(suppressed[k], "*")
					}
				}
			}
		}
	}
	matches := func(d Diagnostic, line int) bool {
		for _, name := range suppressed[key{d.Pos.Filename, line}] {
			if name == "*" || name == d.Analyzer {
				return true
			}
		}
		return false
	}
	var out []Diagnostic
	for _, d := range diags {
		if matches(d, d.Pos.Line) || matches(d, d.Pos.Line-1) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// pkgNamed reports whether p is the package the analyzers know by base
// name — matching both the real module path ("hetmr/internal/rpcnet")
// and a fixture package ("rpcnet").
func pkgNamed(p *types.Package, base string) bool {
	if p == nil {
		return false
	}
	return p.Path() == base || strings.HasSuffix(p.Path(), "/"+base)
}

// exprString renders a (small) expression for use as a lock identity
// or in a message.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	default:
		return "expr"
	}
}

// calleeFunc resolves a call expression to the function or method it
// invokes, or nil for indirect calls through function values and type
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
