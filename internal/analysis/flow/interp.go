package flow

import (
	"go/ast"
	"sort"
)

// Effects parameterizes WalkBody over an abstract path state S: walorder
// tracks a "mutated but unjournaled" bit, locks a held-lock set. The
// walker owns control flow (branch forking, merging, loop re-entry,
// termination); the analyzer owns what a call does to the state.
type Effects[S any] struct {
	// Clone copies a state before a path forks.
	Clone func(S) S
	// Merge joins the states of two paths that reconverge. Analyzers pick
	// the direction of the approximation here: walorder merges with OR
	// (may-be-dirty), locks with intersection (must-hold).
	Merge func(S, S) S
	// Call applies one call/defer/go expression to the state and returns
	// the state after it. Reporting happens inside; deduplicate by
	// position, since loop bodies are walked twice.
	Call func(S, *ast.CallExpr, CallKind) S
	// Select, when non-nil, observes each selector expression the calls
	// are interleaved with, in the same evaluation order, against the
	// state at that point. Deduplicate reports as for Call.
	Select func(S, *ast.SelectorExpr)
}

// WalkBody abstractly interprets a function body: statements in source
// order, both arms of every branch, loop bodies twice (entry state merged
// with first-pass exit, so facts established late in an iteration are seen
// by early statements of the next), paths ending in return dropped from
// reconvergence merges. Function literals are not entered — they execute
// elsewhere; analyzers handle them as separate graph nodes.
//
// The result is the merged state over all paths reaching the end of body.
func WalkBody[S any](body *ast.BlockStmt, entry S, fx Effects[S]) S {
	s, _ := walkStmt(body, entry, fx)
	return s
}

// walkStmt returns the state after st and whether every path through st
// terminates (return), so callers can drop dead paths from merges.
func walkStmt[S any](st ast.Stmt, s S, fx Effects[S]) (S, bool) {
	switch x := st.(type) {
	case nil:
		return s, false

	case *ast.BlockStmt:
		for _, sub := range x.List {
			var term bool
			s, term = walkStmt(sub, s, fx)
			if term {
				return s, true
			}
		}
		return s, false

	case *ast.IfStmt:
		s, _ = walkStmt(x.Init, s, fx)
		s = exprCalls(x.Cond, s, fx)
		thenS, thenT := walkStmt(x.Body, fx.Clone(s), fx)
		elseS, elseT := walkStmt(x.Else, fx.Clone(s), fx)
		switch {
		case thenT && elseT:
			return s, true
		case thenT:
			return elseS, false
		case elseT:
			return thenS, false
		}
		return fx.Merge(thenS, elseS), false

	case *ast.ForStmt:
		s, _ = walkStmt(x.Init, s, fx)
		cur := exprCalls(x.Cond, s, fx)
		for range 2 {
			b, term := walkStmt(x.Body, fx.Clone(cur), fx)
			if term {
				break
			}
			b, _ = walkStmt(x.Post, b, fx)
			b = exprCalls(x.Cond, b, fx)
			cur = fx.Merge(cur, b)
		}
		return cur, false

	case *ast.RangeStmt:
		cur := exprCalls(x.X, s, fx)
		for range 2 {
			b, term := walkStmt(x.Body, fx.Clone(cur), fx)
			if term {
				break
			}
			cur = fx.Merge(cur, b)
		}
		return cur, false

	case *ast.SwitchStmt:
		s, _ = walkStmt(x.Init, s, fx)
		s = exprCalls(x.Tag, s, fx)
		return walkClauses(x.Body, s, true, fx)

	case *ast.TypeSwitchStmt:
		s, _ = walkStmt(x.Init, s, fx)
		s, _ = walkStmt(x.Assign, s, fx)
		return walkClauses(x.Body, s, true, fx)

	case *ast.SelectStmt:
		// Exactly one clause runs; there is no fall-past path.
		return walkClauses(x.Body, s, false, fx)

	case *ast.LabeledStmt:
		return walkStmt(x.Stmt, s, fx)

	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s = exprCalls(e, s, fx)
		}
		return s, true

	case *ast.BranchStmt:
		// break/continue/goto: approximated as fall-through; loop re-entry
		// and reconvergence merges absorb the imprecision.
		return s, false

	case *ast.DeferStmt:
		// Arguments are evaluated now; the call itself is tagged KindDefer
		// and processed at the defer site (a lexical approximation of
		// running at return).
		for _, a := range x.Call.Args {
			s = exprCalls(a, s, fx)
		}
		return fx.Call(s, x.Call, KindDefer), false

	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			s = exprCalls(a, s, fx)
		}
		return fx.Call(s, x.Call, KindGo), false
	}

	// Leaf statements (expressions, assignments, declarations, sends):
	// process contained calls in evaluation order.
	return exprCalls(st, s, fx), false
}

// walkClauses merges the case bodies of a switch/select; withImplicit adds
// the fall-past path of a switch without a default clause.
func walkClauses[S any](body *ast.BlockStmt, s S, withImplicit bool, fx Effects[S]) (S, bool) {
	var (
		merged  S
		have    bool
		allTerm = true
		hasDef  bool
	)
	for _, raw := range body.List {
		var exprs []ast.Expr
		var stmts []ast.Stmt
		switch cc := raw.(type) {
		case *ast.CaseClause:
			exprs, stmts = cc.List, cc.Body
			if cc.List == nil {
				hasDef = true
			}
		case *ast.CommClause:
			stmts = cc.Body
			if cc.Comm != nil {
				var st S
				st, _ = walkStmt(cc.Comm, fx.Clone(s), fx)
				_ = st // comm op itself carries no call effects worth keeping per-clause
			} else {
				hasDef = true
			}
		default:
			continue
		}
		cs := fx.Clone(s)
		for _, e := range exprs {
			cs = exprCalls(e, cs, fx)
		}
		cs, term := walkStmt(&ast.BlockStmt{List: stmts}, cs, fx)
		if term {
			continue
		}
		allTerm = false
		if !have {
			merged, have = cs, true
		} else {
			merged = fx.Merge(merged, cs)
		}
	}
	if withImplicit && !hasDef {
		if !have {
			return s, false
		}
		return fx.Merge(merged, s), false
	}
	if !have {
		// Every clause terminated (or there were none): the statement
		// terminates only if a default guarantees some clause ran.
		if allTerm && hasDef {
			return s, true
		}
		return s, false
	}
	return merged, false
}

// exprCalls applies fx.Call to every call expression under n (excluding
// nested function literals), and fx.Select to every selector, in
// approximate evaluation order: an expression completes after its
// operands, so ordering by end offset visits g before f in f(g()), and
// x.mu before the Lock call of x.mu.Lock().
func exprCalls[S any](n ast.Node, s S, fx Effects[S]) S {
	if n == nil {
		return s
	}
	var nodes []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			nodes = append(nodes, c)
		case *ast.SelectorExpr:
			if fx.Select != nil {
				nodes = append(nodes, c)
			}
		}
		return true
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].End() < nodes[j].End() })
	for _, c := range nodes {
		switch x := c.(type) {
		case *ast.CallExpr:
			s = fx.Call(s, x, KindCall)
		case *ast.SelectorExpr:
			fx.Select(s, x)
		}
	}
	return s
}
