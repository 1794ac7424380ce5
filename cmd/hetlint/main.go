// Command hetlint runs the project-invariant analyzer suite
// (internal/analysis) over the module: lockheldcall, configdrop and
// mustclose. It loads and type-checks the module from source — no
// module downloads, no build cache — and prints findings as
// file:line:col: [analyzer] message, exiting non-zero when any survive
// the //hetlint:ignore directives.
//
// Usage:
//
//	hetlint [-list] [packages]
//
// Packages are module-relative directories ("internal/rpcnet") or the
// default "./..." for the whole module.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hetmr/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hetlint [-list] [packages]\n\nhetlint checks hetmr's project invariants. Default package pattern: ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := analysis.LoadModule(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		// Print module-relative paths: stable across checkouts, and
		// clickable from the repo root.
		if rel, err := filepath.Rel(prog.Root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hetlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetlint:", err)
	os.Exit(2)
}
