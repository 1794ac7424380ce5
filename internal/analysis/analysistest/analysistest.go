// Package analysistest runs one analyzer over a GOPATH-style fixture
// tree and checks its diagnostics against // want comments — the same
// contract as golang.org/x/tools/go/analysis/analysistest, scoped to
// what hetmr's in-repo framework needs.
//
// A fixture file marks expected findings on the offending line:
//
//	time.Sleep(d) // want `call to time\.Sleep .* while s\.mu is held`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match exactly one diagnostic reported on that
// line; diagnostics with no matching expectation, and expectations
// with no matching diagnostic, fail the test. A "// want" may also sit
// inside another line comment ("//directive ... // want `...`"), which
// is how a finding on a directive comment is expected.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetmr/internal/analysis"
)

// Run loads testdata/src (relative to the test's working directory),
// analyzes the named fixture packages with a, and reports mismatches
// between diagnostics and // want expectations through t.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadFixture(srcRoot, pkgs...)
	if err != nil {
		t.Fatalf("loading fixture packages %v: %v", pkgs, err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, prog)
	for _, d := range diags {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.rx.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", rel(srcRoot, d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", rel(srcRoot, key.file), key.line, w.rx)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	rx   *regexp.Regexp
	used bool
}

// wantRx extracts the quoted regexps from a want comment.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses // want comments out of every fixture file.
func collectWants(t *testing.T, prog *analysis.Program) map[posKey][]*want {
	t.Helper()
	wants := make(map[posKey][]*want)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, rest, ok := strings.Cut(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, q := range wantRx.FindAllString(rest, -1) {
						var pat string
						if strings.HasPrefix(q, "`") {
							pat = strings.Trim(q, "`")
						} else {
							var err error
							pat, err = strconv.Unquote(q)
							if err != nil {
								t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
							}
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						key := posKey{pos.Filename, pos.Line}
						wants[key] = append(wants[key], &want{rx: rx})
					}
				}
			}
		}
	}
	return wants
}

func rel(root, path string) string {
	if r, err := filepath.Rel(root, path); err == nil {
		return r
	}
	return path
}
