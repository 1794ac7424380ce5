package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckDocsFlagsRottenReferences runs the reference check over a
// scratch tree: names that exist pass (inline, command-block — with or
// without arguments — and prefix* forms), names that do not are each
// reported, and functions under a hidden directory do not count as the
// tree's.
func TestCheckDocsFlagsRottenReferences(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", "GO ?= go\n.PHONY: build\nbuild:\n\t$(GO) build ./...\nbench-compare:\n\ttrue\n")
	write("pkg/a_test.go", "package a\n\nfunc TestAlpha(t *testing.T) {}\nfunc TestHeldOne(t *testing.T) {}\nfunc BenchmarkBeta(b *testing.B) {}\n")
	write(".bench_build/src/b_test.go", "package b\n\nfunc TestHidden(t *testing.T) {}\n")
	write("README.md", "Run `make build`, then `make bench-compare BASE=x`, never `make bench-gate`.\n"+
		"```sh\nmake build   # fine\nmake bench-json # gone\nmake bench-compare BASE=x\nmake bench-baseline OUT=y\n```\n"+
		"Pinned by `TestAlpha`, `TestHeld*` and `BenchmarkBeta`; not by `TestHidden`,\n"+
		"`BenchmarkGone` or `TestNope*`. We make sure `Testing` and [a link](pkg/a_test.go) pass.\n")
	write("ARCHITECTURE.md", "See [missing](pkg/missing.go).\n")

	got, err := checkDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md: `make bench-gate` is not a Makefile target",
		"README.md: `make bench-json` is not a Makefile target",
		"README.md: `make bench-baseline` is not a Makefile target",
		"README.md: no function TestHidden in the tree's test files",
		"README.md: no function BenchmarkGone in the tree's test files",
		"README.md: no function TestNope* in the tree's test files",
		`ARCHITECTURE.md: broken link "pkg/missing.go"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkDocs problems:\n got %q\nwant %q", got, want)
	}
}
