// Package hotalloc turns the "0 allocs/op" benchmark contract into a
// static check: a function annotated
//
//	//sqpr:hotpath
//
// in its doc comment may not contain allocation sites. Flagged forms:
// make/new calls, append, map and slice composite literals, &T{...}
// literals, closures (func literals capture and escape), go statements,
// non-constant string concatenation, string<->[]byte/[]rune conversions,
// and fmt.* calls.
//
// Two escape valves:
//
//   - statements inside `if invariant.Enabled { ... }` blocks are skipped
//     (checked-build assertions only exist under -tags sqprdebug);
//   - //sqpr:amortized on the line (or the line above) marks an append into
//     a pooled buffer whose capacity is retained across calls, so growth is
//     amortized away in steady state (the journal/scratch pattern).
//
// The check is intentionally per-body: callees are not followed. The
// allocation-count tests (lp's TestReSolveSteadyStateAllocationFree, milp's
// TestSolveAllocationsPerSolveBounded) remain the ground truth for the whole
// call tree; hotalloc catches the regressions a reviewer would otherwise
// only see as a failing count.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"sqpr/internal/analysis/anno"
	"sqpr/internal/analysis/anz"
)

// Analyzer is the hotalloc check.
var Analyzer = &anz.Analyzer{
	Name: "hotalloc",
	Doc:  "check that //sqpr:hotpath functions contain no allocation sites",
	Run:  run,
}

func run(pass *anz.Pass) error {
	lines := anno.CollectLines(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := anno.FromGroup(fd.Doc, "hotpath"); !ok {
				continue
			}
			check(pass, lines, fd)
		}
	}
	return nil
}

func check(pass *anz.Pass, lines *anno.Lines, fd *ast.FuncDecl) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			// `if invariant.Enabled && ... { }` is compiled out of release
			// builds; its body is allowed to allocate for its diagnostics.
			if mentionsInvariantEnabled(x.Cond) {
				if x.Init != nil {
					ast.Inspect(x.Init, visit)
				}
				return false
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "hotpath %s contains a closure literal (captures escape to the heap)", fd.Name.Name)
			return false
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "hotpath %s starts a goroutine", fd.Name.Name)
			return false
		case *ast.CallExpr:
			checkCall(pass, lines, fd, x)
		case *ast.CompositeLit:
			checkComposite(pass, fd, x, false)
			return false // inner literals are part of the same allocation
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := x.X.(*ast.CompositeLit); ok {
					checkComposite(pass, fd, cl, true)
					return false
				}
			}
		case *ast.BinaryExpr:
			checkConcat(pass, fd, x)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

func checkCall(pass *anz.Pass, lines *anno.Lines, fd *ast.FuncDecl, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch {
		case isBuiltin(pass, fun, "make"):
			pass.Reportf(call.Pos(), "hotpath %s calls make (allocates; move it to setup)", fd.Name.Name)
		case isBuiltin(pass, fun, "new"):
			pass.Reportf(call.Pos(), "hotpath %s calls new (allocates)", fd.Name.Name)
		case isBuiltin(pass, fun, "append"):
			if !lines.At(pass.Fset, call.Pos(), "amortized") {
				pass.Reportf(call.Pos(), "hotpath %s appends (may grow; annotate //sqpr:amortized for pooled buffers)", fd.Name.Name)
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hotpath %s calls fmt.%s (allocates)", fd.Name.Name, fun.Sel.Name)
			}
		}
	}
	// Conversions to []byte/[]rune/string allocate a copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		if argTV, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
			from := argTV.Type.Underlying()
			if isStringSliceConv(from, to) && argTV.Value == nil {
				pass.Reportf(call.Pos(), "hotpath %s converts between string and slice (copies)", fd.Name.Name)
			}
		}
	}
}

func checkComposite(pass *anz.Pass, fd *ast.FuncDecl, cl *ast.CompositeLit, addressed bool) {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(cl.Pos(), "hotpath %s builds a map literal (allocates)", fd.Name.Name)
	case *types.Slice:
		pass.Reportf(cl.Pos(), "hotpath %s builds a slice literal (allocates)", fd.Name.Name)
	default:
		if addressed {
			pass.Reportf(cl.Pos(), "hotpath %s takes the address of a composite literal (escapes)", fd.Name.Name)
		}
	}
}

func checkConcat(pass *anz.Pass, fd *ast.FuncDecl, be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo.Types[be]
	if !ok || tv.Value != nil { // constant-folded concat is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		pass.Reportf(be.Pos(), "hotpath %s concatenates strings (allocates)", fd.Name.Name)
	}
}

func isBuiltin(pass *anz.Pass, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func mentionsInvariantEnabled(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "invariant" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isStringSliceConv reports a conversion between string and []byte/[]rune
// in either direction.
func isStringSliceConv(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}
