// Command sqpr-vet runs the repository's custom static analyzers over the
// given package patterns (default ./...): the per-package passes ctxflow
// and hotalloc, and the module passes walorder and locks, built on the
// internal/analysis/flow call graph. It prints one line per finding and
// exits nonzero when any fires, so CI can gate on it like `go vet`:
//
//	go run ./cmd/sqpr-vet ./...
//
// See DESIGN.md §"Static contracts" and §"Interprocedural contracts" for
// the annotation vocabulary the analyzers enforce.
package main

import (
	"flag"
	"fmt"
	"os"

	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/ctxflow"
	"sqpr/internal/analysis/hotalloc"
	"sqpr/internal/analysis/locks"
	"sqpr/internal/analysis/walorder"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sqpr-vet [packages]\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := anz.Load(".", patterns...)
	if err != nil {
		fail(err)
	}
	findings, err := anz.RunAnalyzers(pkgs, []*anz.Analyzer{ctxflow.Analyzer, hotalloc.Analyzer})
	if err != nil {
		fail(err)
	}
	modFindings, err := anz.RunModuleAnalyzers(pkgs, []*anz.ModuleAnalyzer{walorder.Analyzer, locks.Analyzer})
	if err != nil {
		fail(err)
	}
	findings = append(findings, modFindings...)
	anz.SortFindings(findings)

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sqpr-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sqpr-vet:", err)
	os.Exit(2)
}
