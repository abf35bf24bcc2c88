// Command sqpr-vet runs the repository's custom static analyzers over the
// given package patterns (default ./...): the per-package passes —
// lockguard, ctxflow, hotalloc, errflow — and the interprocedural
// module passes — walorder, lockorder — built on the
// internal/analysis/flow call graph. It exits nonzero when any diagnostic
// fires, so CI can gate on it like `go vet`:
//
//	go run ./cmd/sqpr-vet ./...
//
// Flags select a subset of analyzers, e.g. -lockguard=false. With -json
// the findings are written to stdout as a versioned machine-readable
// report (schema in internal/analysis/anz/json.go) instead of plain
// lines; exit codes are unchanged, so CI can both archive the report and
// gate on it. See DESIGN.md §"Static contracts" and §"Interprocedural
// contracts" for the annotation vocabulary the analyzers enforce.
package main

import (
	"flag"
	"fmt"
	"os"

	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/ctxflow"
	"sqpr/internal/analysis/errflow"
	"sqpr/internal/analysis/hotalloc"
	"sqpr/internal/analysis/lockguard"
	"sqpr/internal/analysis/lockorder"
	"sqpr/internal/analysis/walorder"
)

func main() {
	perPkg := []*anz.Analyzer{lockguard.Analyzer, ctxflow.Analyzer, hotalloc.Analyzer, errflow.Analyzer}
	module := []*anz.ModuleAnalyzer{walorder.Analyzer, lockorder.Analyzer}

	enabled := make(map[string]*bool, len(perPkg)+len(module))
	for _, a := range perPkg {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	for _, a := range module {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	jsonOut := flag.Bool("json", false, "write findings to stdout as a versioned JSON report")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sqpr-vet [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var runPkg []*anz.Analyzer
	for _, a := range perPkg {
		if *enabled[a.Name] {
			runPkg = append(runPkg, a)
		}
	}
	var runMod []*anz.ModuleAnalyzer
	for _, a := range module {
		if *enabled[a.Name] {
			runMod = append(runMod, a)
		}
	}

	pkgs, err := anz.Load(".", patterns...)
	if err != nil {
		fail(err)
	}
	findings, err := anz.RunAnalyzers(pkgs, runPkg)
	if err != nil {
		fail(err)
	}
	modFindings, err := anz.RunModuleAnalyzers(pkgs, runMod)
	if err != nil {
		fail(err)
	}
	findings = append(findings, modFindings...)
	anz.SortFindings(findings)

	if *jsonOut {
		if err := anz.WriteJSON(os.Stdout, findings); err != nil {
			fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
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
