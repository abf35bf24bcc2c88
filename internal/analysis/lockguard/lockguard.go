// Package lockguard enforces the //sqpr:guarded-by mutex annotations: a
// struct field annotated
//
//	//sqpr:guarded-by mu
//
// may only be read or written in functions that demonstrably hold the
// mutex. The check is a deliberate lexical approximation — sound enough to
// catch the real regression (touching shared planner/service/search state
// without locking) without whole-program lock-set analysis:
//
//   - an access is accepted when, in the same innermost function literal
//     or declaration, the latest non-deferred lock or unlock of the mutex
//     on the same base expression before it is a lock (base.mu.Lock() or
//     base.mu.RLock(); writes require the exclusive Lock; an unlock on a
//     branch that returns is skipped); inside the success branch of
//     `if base.mu.TryLock()` (TryRLock for reads); or after a pending
//     `defer base.mu.Unlock()` — direct or bound as a method value — which
//     proves a caller-acquired lock is held;
//   - a function annotated //sqpr:locked mu declares its caller holds mu
//     (used for helpers called under the lock and for single-threaded
//     phases such as the branch-and-bound root);
//   - values constructed locally from a composite literal are exempt until
//     they escape (constructors initialise fields before the value is
//     shared, and a search owned by the creating function needs no lock
//     after its workers have been joined);
//   - a statement-level //sqpr:locked mu comment suppresses one access
//     inside a closure whose lock is managed outside the literal.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sqpr/internal/analysis/anno"
	"sqpr/internal/analysis/anz"
)

// Analyzer is the lockguard check.
var Analyzer = &anz.Analyzer{
	Name: "lockguard",
	Doc:  "check that //sqpr:guarded-by fields are only accessed under their mutex",
	Run:  run,
}

func run(pass *anz.Pass) error {
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return nil
	}
	lines := anno.CollectLines(pass.Fset, pass.Files)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			heldByDecl := lockedMutexes(fd.Doc)
			checkFunc(pass, guarded, lines, fd.Body, fd.Name.Name, heldByDecl)
		}
	}
	return nil
}

// collectGuarded maps each annotated field object to its mutex field name,
// validating that the named mutex exists in the same struct.
func collectGuarded(pass *anz.Pass) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				d, ok := anno.FromGroup(f.Doc, "guarded-by")
				if !ok {
					d, ok = anno.FromGroup(f.Comment, "guarded-by")
				}
				if !ok {
					continue
				}
				if d.Args == "" || !fieldNames[d.Args] {
					pass.Reportf(f.Pos(), "guarded-by names %q, which is not a field of this struct", d.Args)
					continue
				}
				for _, name := range f.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = d.Args
					}
				}
			}
			return true
		})
	}
	return out
}

// lockedMutexes parses //sqpr:locked annotations from a doc comment.
func lockedMutexes(doc *ast.CommentGroup) map[string]bool {
	out := make(map[string]bool)
	if doc == nil {
		return out
	}
	for _, c := range doc.List {
		if d, ok := anno.Parse(c); ok && d.Verb == "locked" {
			if name := firstField(d.Args); name != "" {
				out[name] = true
			}
		}
	}
	return out
}

// funcScope is the per-function-literal analysis state.
type funcScope struct {
	name string
	body *ast.BlockStmt
	// held lists mutex names declared held for the whole function.
	held map[string]bool
	// locals maps objects assigned from composite literals in this
	// function (the constructor exemption).
	locals map[types.Object]bool
}

func checkFunc(pass *anz.Pass, guarded map[types.Object]string, lines *anno.Lines, body *ast.BlockStmt, name string, held map[string]bool) {
	sc := &funcScope{name: name, body: body, held: held, locals: collectCompositeLocals(pass, body)}
	walk(pass, guarded, lines, sc, body)
}

// walk visits the function body, recursing into nested literals with a
// fresh scope (a closure may run on another goroutine, so locks held by
// the enclosing function do not count inside it).
func walk(pass *anz.Pass, guarded map[types.Object]string, lines *anno.Lines, sc *funcScope, n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			if x != n {
				inner := &funcScope{
					name:   sc.name + ".func",
					body:   x.Body,
					held:   map[string]bool{},
					locals: collectCompositeLocals(pass, x.Body),
				}
				walk(pass, guarded, lines, inner, x.Body)
				return false
			}
		case *ast.SelectorExpr:
			checkAccess(pass, guarded, lines, sc, x)
		}
		return true
	})
}

func checkAccess(pass *anz.Pass, guarded map[types.Object]string, lines *anno.Lines, sc *funcScope, sel *ast.SelectorExpr) {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	mu, ok := guarded[selection.Obj()]
	if !ok {
		return
	}
	if sc.held[mu] {
		return
	}
	for _, arg := range lines.ArgsAt(pass.Fset, sel.Pos(), "locked") {
		if firstField(arg) == mu {
			return
		}
	}
	if sc.locals[rootObject(pass, sel.X)] {
		return
	}
	base := types.ExprString(sel.X)
	write := isWrite(sc.body, sel)
	if holdsBefore(sc.body, base, mu, sel.Pos(), write) {
		return
	}
	if inTryLockBranch(sc.body, base, mu, sel.Pos(), write) {
		return
	}
	if deferredUnlockBefore(pass, sc.body, base, mu, sel.Pos(), write) {
		return
	}
	need := "Lock"
	if !write {
		need = "Lock/RLock"
	}
	pass.Reportf(sel.Pos(), "%s.%s is guarded by %q but %s does not %s %s.%s first (annotate //sqpr:locked %s if the caller holds it)",
		base, selection.Obj().Name(), mu, sc.name, need, base, mu, mu)
}

// holdsBefore reports whether base.mu is locked at pos, as far as this
// function's own lexical order shows: the latest non-deferred Lock, RLock,
// Unlock or RUnlock on base.mu that ends before pos decides (an RLock
// licenses reads only). Lock-then-touch passes; unlock-then-touch does not,
// whatever was locked further up. An unlock on a path that leaves the
// function — `if bad { mu.Unlock(); return }` — says nothing about the
// code after it and is skipped.
func holdsBefore(body *ast.BlockStmt, base, mu string, pos token.Pos, write bool) bool {
	held := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return x.Body == body
		case *ast.DeferStmt:
			return false
		case *ast.BlockStmt:
			if x.End() <= pos && leaves(x) {
				return false
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || x.End() > pos {
				return true
			}
			muSel, ok := sel.X.(*ast.SelectorExpr)
			if !ok || muSel.Sel.Name != mu || types.ExprString(muSel.X) != base {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				held = true
			case "RLock":
				held = !write
			case "Unlock", "RUnlock":
				held = false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return held
}

// leaves reports whether the block ends by leaving the function or the
// loop iteration, so nothing lexically after it runs in the state it left.
func leaves(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE
	}
	return false
}

// inTryLockBranch reports whether pos sits inside the success branch of
// `if base.mu.TryLock() { … }` (TryRLock for reads): the condition being
// true is exactly the lock being held for that block.
func inTryLockBranch(body *ast.BlockStmt, base, mu string, pos token.Pos, write bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(ifst.Cond).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "TryLock" && (write || sel.Sel.Name != "TryRLock") {
			return true
		}
		muSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok || muSel.Sel.Name != mu || types.ExprString(muSel.X) != base {
			return true
		}
		if ifst.Body.Pos() <= pos && pos < ifst.Body.End() {
			found = true
			return false
		}
		return true
	})
	return found
}

// deferredUnlockBefore reports whether a `defer base.mu.Unlock()` (RUnlock
// for reads) precedes pos — direct, or through a method value:
//
//	u := base.mu.Unlock
//	defer u()
//
// A pending unlock is proof the lock is currently held even when the
// acquisition happened in the caller.
func deferredUnlockBefore(pass *anz.Pass, body *ast.BlockStmt, base, mu string, pos token.Pos, write bool) bool {
	// Method-value unlocks bound before pos, by object.
	unlockValues := make(map[types.Object]bool)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.End() > pos {
				return true
			}
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if !isUnlockSelector(rhs, base, mu, write) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						unlockValues[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						unlockValues[obj] = true
					}
				}
			}
		case *ast.DeferStmt:
			if x.End() > pos {
				return true
			}
			if isUnlockSelector(x.Call.Fun, base, mu, write) {
				found = true
				return false
			}
			if id, ok := ast.Unparen(x.Call.Fun).(*ast.Ident); ok && unlockValues[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isUnlockSelector matches base.mu.Unlock (or RUnlock for reads) used as a
// bare method expression — the callee of a defer or the RHS of a
// method-value binding.
func isUnlockSelector(e ast.Expr, base, mu string, write bool) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Unlock" && (write || sel.Sel.Name != "RUnlock") {
		return false
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	return ok && muSel.Sel.Name == mu && types.ExprString(muSel.X) == base
}

// isWrite reports whether sel is the target of an assignment or inc/dec
// somewhere in the body (approximated by matching the node identity on
// LHS positions).
func isWrite(body *ast.BlockStmt, sel *ast.SelectorExpr) bool {
	write := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if lhs == ast.Expr(sel) {
					write = true
				}
			}
		case *ast.IncDecStmt:
			if x.X == ast.Expr(sel) {
				write = true
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" && x.X == ast.Expr(sel) {
				write = true
			}
		}
		return !write
	})
	return write
}

// collectCompositeLocals finds variables bound to composite literals in
// this function: `s := &search{...}` / `var c counter = counter{...}`.
func collectCompositeLocals(pass *anz.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCompositeExpr(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isCompositeExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := x.X.(*ast.CompositeLit)
		return ok && x.Op.String() == "&"
	}
	return false
}

// firstField returns the first whitespace-separated token of an annotation
// argument: `//sqpr:locked mu — caller holds it` names mutex "mu", the rest
// is free-form rationale.
func firstField(s string) string {
	fs := strings.Fields(s)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// rootObject resolves the leftmost identifier of a selector chain.
func rootObject(pass *anz.Pass, e ast.Expr) types.Object {
	//sqpr:noctx bounded by the finite selector chain
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
