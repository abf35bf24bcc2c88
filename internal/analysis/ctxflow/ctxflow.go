// Package ctxflow enforces the repository's cancellation contract: every
// planner advertises "a ctx cancellation aborts the call promptly", so the
// loops that do the work must actually poll the context, and library code
// must not mint root contexts that silently detach work from its caller.
//
// Rules (all statically checked, package main and _test files excepted):
//
//  1. No context.Background()/context.TODO() in library packages. A
//     deliberate root (a detached batch context, the single nil-ctx
//     defaulting helper) is annotated //sqpr:ctxroot <reason>; a whole
//     package that is a legitimate context root (the experiment harness)
//     carries //sqpr:ctxroot-package in a package comment.
//
//  2. Every unconditional `for {` loop must poll cancellation: reference
//     ctx.Done()/ctx.Err() (directly, through a select, or by calling a
//     same-package function that transitively polls — the solver's
//     s.expired() chain), or be annotated //sqpr:noctx <reason> when it is
//     bounded or terminated by other means (channel close, listener
//     shutdown).
//
//  3. A conditioned loop annotated //sqpr:ctxloop opts into the same
//     polling requirement (the core planner's chunk loop, which must stay
//     cancellable between chunks even though it ranges over a slice).
//
// The transitive-poll analysis runs on the shared call graph (package
// flow) built over the pass's package alone: a function polls if its body
// mentions Done/Err on a context value, or if it calls, defers or launches
// a same-package function that polls.
package ctxflow

import (
	"go/ast"
	"go/types"

	"sqpr/internal/analysis/anno"
	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/flow"
)

// Analyzer is the ctxflow check.
var Analyzer = &anz.Analyzer{
	Name: "ctxflow",
	Doc:  "check that loops poll ctx cancellation and library code does not mint root contexts",
	Run:  run,
}

func run(pass *anz.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	lines := anno.CollectLines(pass.Fset, pass.Files)
	rootPkg := anno.PackageHas(pass.Files, "ctxroot-package")

	polls := pollingFuncs(pass)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if !rootPkg {
					checkRootContext(pass, lines, x)
				}
			case *ast.ForStmt:
				bare := x.Init == nil && x.Cond == nil && x.Post == nil
				optIn := lines.At(pass.Fset, x.Pos(), "ctxloop")
				if !bare && !optIn {
					return true
				}
				if lines.At(pass.Fset, x.Pos(), "noctx") && !optIn {
					return true
				}
				if !bodyPolls(pass, polls, x.Body) {
					kind := "unconditional loop"
					if optIn {
						kind = "//sqpr:ctxloop loop"
					}
					pass.Reportf(x.Pos(), "%s does not poll ctx cancellation (reference ctx.Done()/ctx.Err(), call a polling helper, or annotate //sqpr:noctx <reason>)", kind)
				}
			case *ast.RangeStmt:
				if lines.At(pass.Fset, x.Pos(), "ctxloop") && !bodyPolls(pass, polls, x.Body) {
					pass.Reportf(x.Pos(), "//sqpr:ctxloop loop does not poll ctx cancellation (reference ctx.Done()/ctx.Err() or call a polling helper)")
				}
			}
			return true
		})
	}
	return nil
}

// checkRootContext flags context.Background()/context.TODO() calls without
// a //sqpr:ctxroot annotation.
func checkRootContext(pass *anz.Pass, lines *anno.Lines, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return
	}
	if lines.At(pass.Fset, call.Pos(), "ctxroot") {
		return
	}
	pass.Reportf(call.Pos(), "library package calls context.%s(); accept a ctx from the caller, or annotate a deliberate root with //sqpr:ctxroot <reason>", sel.Sel.Name)
}

// pollingFuncs computes the keys of the package functions that
// (transitively) poll a context: a body that mentions .Done()/.Err() on a
// context.Context value seeds the set, and every same-package caller
// through a call, defer or go edge joins it.
func pollingFuncs(pass *anz.Pass) map[string]bool {
	g := flow.Build([]*anz.Package{{
		PkgPath: pass.Pkg.Path(), Fset: pass.Fset, Syntax: pass.Files,
		Types: pass.Pkg, TypesInfo: pass.TypesInfo,
	}})
	seeds := make(map[string]bool)
	g.Each(func(f *flow.Func) {
		if body := f.Body(); body != nil && mentionsCtxPoll(pass, body) {
			seeds[f.Key] = true
		}
	})
	return g.ReachesAny(seeds, flow.KindCall, flow.KindDefer, flow.KindGo)
}

// mentionsCtxPoll reports a direct Done/Err selector on a context-typed
// expression anywhere in the node (including nested literals: a polling
// closure passed to a worker still bounds the loop that spawned it).
func mentionsCtxPoll(pass *anz.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		sel, ok := node.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err" && sel.Sel.Name != "Deadline") {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isContext(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callsPolling reports a call anywhere in the node whose static callee
// polls.
func callsPolling(pass *anz.Pass, polls map[string]bool, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			key, ok := flow.ResolveCall(pass.TypesInfo, call)
			found = ok && polls[key]
		}
		return !found
	})
	return found
}

// bodyPolls reports whether the loop body polls cancellation directly or
// through a same-package call.
func bodyPolls(pass *anz.Pass, polls map[string]bool, body *ast.BlockStmt) bool {
	return mentionsCtxPoll(pass, body) || callsPolling(pass, polls, body)
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
