// Command docscheck is the CI docs gate: it fails when an exported
// identifier in the core packages lacks a doc comment, when a core
// package lacks a package comment, or when README.md or ARCHITECTURE.md
// refers to something that is not there — a linked file, a `make`
// target, a Test or Benchmark function. It uses only the standard
// library so the lint lane needs no external tools.
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
	"internal/core",
	"internal/kernels",
	"internal/cluster",
	"internal/spurt",
	"internal/cellmr",
	"internal/cellbe",
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
	probs, err := checkDocs(root)
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

var (
	// linkPattern matches inline markdown links; the destination is
	// captured.
	linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// makePattern captures the target of a make invocation that opens an
	// inline code span or a line (a command block's); arguments may
	// follow it.
	makePattern = regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	// funcRefPattern captures a code span naming a Test or Benchmark
	// function; a trailing * makes the name a prefix.
	funcRefPattern = regexp.MustCompile("`((?:Test|Benchmark)[A-Z0-9][A-Za-z0-9_]*)(\\*?)`")
	// targetPattern captures a Makefile rule's target, funcDeclPattern a
	// test file's Test or Benchmark function.
	targetPattern   = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	funcDeclPattern = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
)

// makeTargets lists the Makefile's rule targets.
func makeTargets(root string) (map[string]bool, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, m := range targetPattern.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets, nil
}

// testFuncs lists every Test and Benchmark function declared in the
// tree's test files, bench/ included; hidden directories (build
// scratch) are skipped.
func testFuncs(root string) ([]string, error) {
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcDeclPattern.FindAllStringSubmatch(string(data), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	return funcs, err
}

// checkDocs runs checkDoc over the prose documents.
func checkDocs(root string) ([]string, error) {
	targets, err := makeTargets(root)
	if err != nil {
		return nil, err
	}
	funcs, err := testFuncs(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		probs, err := checkDoc(root, name, targets, funcs)
		if err != nil {
			return nil, err
		}
		problems = append(problems, probs...)
	}
	return problems, nil
}

// checkDoc verifies one markdown file's references: every relative
// link destination points at an existing file or directory, every
// `make` target is a Makefile rule, and every backticked Test or
// Benchmark name (or name* prefix) is a function in the tree.
// External links (scheme-prefixed) and pure anchors are skipped;
// anchors and :line suffixes on file links are stripped before the
// existence check.
func checkDoc(root, name string, targets map[string]bool, funcs []string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return nil, fmt.Errorf("%s: %w (the docs lane requires it)", name, err)
	}
	text := string(data)
	var problems []string
	for _, m := range makePattern.FindAllStringSubmatch(text, -1) {
		if target := m[1]; !targets[target] {
			problems = append(problems, fmt.Sprintf("%s: `make %s` is not a Makefile target", name, target))
		}
	}
	for _, m := range funcRefPattern.FindAllStringSubmatch(text, -1) {
		found := false
		for _, f := range funcs {
			if f == m[1] || m[2] == "*" && strings.HasPrefix(f, m[1]) {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: no function %s%s in the tree's test files", name, m[1], m[2]))
		}
	}
	for _, m := range linkPattern.FindAllStringSubmatch(text, -1) {
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
