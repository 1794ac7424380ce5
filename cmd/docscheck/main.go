// Command docscheck is the CI docs gate: it fails when an exported
// identifier in the core packages lacks a doc comment, when a core
// package lacks a package comment, or when ARCHITECTURE.md links to a
// file that does not exist. It uses only the standard library so the
// lint lane needs no external tools.
//
//	go run ./cmd/docscheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// corePackages are the documented-API surface the docs lane enforces.
var corePackages = []string{
	"internal/engine",
	"internal/sched",
	"internal/hadoop",
	"internal/workload",
	"internal/netmr",
	"internal/spill",
	"internal/flow",
	"internal/hdfs",
	"internal/rpcnet",
	"internal/analysis",
	"internal/testutil",
	"internal/topo",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	for _, pkg := range corePackages {
		probs, err := checkPackage(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", pkg, err)
			os.Exit(2)
		}
		problems = append(problems, probs...)
	}
	probs, err := checkLinks(root, "ARCHITECTURE.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, probs...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkPackage reports exported identifiers without doc comments and a
// missing package comment in one package directory (test files are
// exempt).
func checkPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			problems = append(problems, checkFile(fset, f)...)
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return problems, nil
}

// checkFile reports one file's undocumented exported declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods on unexported receivers are internal API.
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			report(d.Pos(), what, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped decl covers the group.
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							report(s.Pos(), strings.ToLower(d.Tok.String()), name.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a method's receiver type is
// exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if gen, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = gen.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// linkPattern matches inline markdown links; the destination is
// captured.
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkLinks verifies that every relative link destination in the
// given markdown file points at an existing file or directory.
// External links (scheme-prefixed) and pure anchors are skipped;
// anchors and :line suffixes on file links are stripped before the
// existence check.
func checkLinks(root, name string) ([]string, error) {
	path := filepath.Join(root, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (the docs lane requires it)", name, err)
	}
	var problems []string
	for _, m := range linkPattern.FindAllStringSubmatch(string(data), -1) {
		dest := m[1]
		if strings.Contains(dest, "://") || strings.HasPrefix(dest, "#") || strings.HasPrefix(dest, "mailto:") {
			continue
		}
		dest, _, _ = strings.Cut(dest, "#")
		// Tolerate file.go:123-style pointers.
		if i := strings.LastIndex(dest, ":"); i > 0 {
			if _, err := fmt.Sscanf(dest[i+1:], "%d", new(int)); err == nil {
				dest = dest[:i]
			}
		}
		if dest == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, dest)); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken link %q", name, m[1]))
		}
	}
	return problems, nil
}
