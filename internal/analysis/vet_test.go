// Package analysis_test runs the full sqpr-vet analyzer suite against the
// real module — the meta-check behind the CI gate: every package must stay
// clean under the per-package analyzers (ctxflow, hotalloc) and the
// interprocedural module analyzers (walorder, locks) at all times, so a
// regression in either the code or the analyzers themselves fails here
// before it fails in CI.
package analysis_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/ctxflow"
	"sqpr/internal/analysis/hotalloc"
	"sqpr/internal/analysis/locks"
	"sqpr/internal/analysis/walorder"
)

// TestModuleIsVetClean loads every package of the module and asserts all
// four analyzers report nothing. Fixture corpora under testdata are not
// part of ./... and keep their deliberate violations. On failure the
// findings print grouped by analyzer with file:line positions, so the
// offending contract is readable straight off the test log.
func TestModuleIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root := moduleRoot(t)
	pkgs, err := anz.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	findings, err := anz.RunAnalyzers(pkgs, []*anz.Analyzer{ctxflow.Analyzer, hotalloc.Analyzer})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	modFindings, err := anz.RunModuleAnalyzers(pkgs, []*anz.ModuleAnalyzer{walorder.Analyzer, locks.Analyzer})
	if err != nil {
		t.Fatalf("running module analyzers: %v", err)
	}
	findings = append(findings, modFindings...)
	if len(findings) == 0 {
		return
	}

	byAnalyzer := make(map[string][]anz.Finding)
	for _, f := range findings {
		byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], f)
	}
	names := make([]string, 0, len(byAnalyzer))
	for name := range byAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byAnalyzer[name]
		t.Errorf("%s: %d finding(s)", name, len(group))
		for _, f := range group {
			t.Errorf("  %s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
		}
	}
	t.Fatalf("sqpr-vet reported %d finding(s); the module must stay clean", len(findings))
}

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
