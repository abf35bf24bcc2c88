// Package anz is a minimal, dependency-free analysis framework in the
// shape of golang.org/x/tools/go/analysis, built on the standard library
// only (the module vendors nothing and adds no external requirements).
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Packages are loaded by Load (see load.go),
// which shells out to `go list -e -export -json -deps` and type-checks
// the target packages from source against the compiler's export data, so
// analyzers see exactly the types the build does — without a network, a
// vendor tree, or golang.org/x/tools.
package anz

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run receives a fully type-checked package
// and reports findings through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "hotalloc").
	Name string
	// Doc is a one-paragraph description of the check.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// ModuleAnalyzer is one whole-program static check: unlike an Analyzer,
// which sees one package at a time, its Run receives every loaded target
// package at once, so it can build call graphs and propagate facts across
// package boundaries (the interprocedural walorder and locks contracts).
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "walorder").
	Name string
	// Doc is a one-paragraph description of the check.
	Doc string
	// Run performs the check over the whole loaded module.
	Run func(*ModulePass) error
}

// ModulePass carries the whole loaded module through one module analyzer.
// All packages share one FileSet (Load guarantees this).
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding pairs a diagnostic with its analyzer and resolved position, the
// unit the multichecker prints and the test harness matches.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by file, line and column. Analyzer errors (not
// diagnostics) abort the run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		if pkg.IllTyped {
			return nil, fmt.Errorf("anz: package %s did not type-check: %w", pkg.PkgPath, firstErr(pkg.Errors))
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("anz: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	SortFindings(out)
	return out, nil
}

// RunModuleAnalyzers applies every whole-program analyzer once over all
// packages together and returns the findings sorted by file, line and
// column. Analyzer errors (not diagnostics) abort the run.
func RunModuleAnalyzers(pkgs []*Package, analyzers []*ModuleAnalyzer) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	for _, pkg := range pkgs {
		if pkg.IllTyped {
			return nil, fmt.Errorf("anz: package %s did not type-check: %w", pkg.PkgPath, firstErr(pkg.Errors))
		}
	}
	fset := pkgs[0].Fset
	var out []Finding
	for _, a := range analyzers {
		pass := &ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: name,
				Pos:      fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("anz: %s: %w", a.Name, err)
		}
	}
	SortFindings(out)
	return out, nil
}

// SortFindings orders findings by file, line, column and message — the
// stable order terminal output and the test harness rely on.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}
