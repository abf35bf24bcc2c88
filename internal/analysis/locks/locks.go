// Package locks is the module's one lock model. It walks every function
// body on flow.WalkBody, tracking the set of mutexes held on every path to
// each point, and checks two contracts against that set:
//
//   - a struct field annotated //sqpr:guarded-by mu is read only with mu
//     held (RLock suffices) and written only with mu Lock-ed, reached
//     through the same base expression: o.c.n needs o.c.mu, not p.c.mu;
//   - acquisitions follow the hierarchy declared in source with
//     //sqpr:lock-order A < B < C (names suffix-matched against lock
//     classes, chains transitively closed), form no undeclared cycle, and
//     never re-take a lock already held.
//
// A lock class is a mutex-typed struct field, keyed by its named type (every
// plan.Service.pmu is one class), or a package-level mutex var. A held entry
// is a class plus the base expression the mutex was reached through:
// ordering edges are between classes, guard checks match instances. A lock
// is held from Lock/RLock to the Unlock/RUnlock on the same path; a merge
// keeps what every incoming path holds, and a path that returns drops out.
// Three more facts make a lock held:
//
//   - a pending `defer x.mu.Unlock()`, which proves the lock is held for
//     the rest of the body even when the caller took it;
//   - //sqpr:locked mu on a method, which says its caller holds the
//     receiver's mu (or the package-level mutex mu);
//   - a callee's acquisitions, through summaries propagated over call and
//     defer edges, count as acquisitions at the call site for ordering.
//
// A function literal is its own call-graph node and starts with nothing
// held: it may run on another goroutine. Values built locally from a
// composite literal are exempt from guard checks, since constructors
// initialise fields before the value is shared.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"sqpr/internal/analysis/anno"
	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/flow"
)

// Analyzer is the module-level locks pass.
var Analyzer = &anz.ModuleAnalyzer{
	Name: "locks",
	Doc:  "check that //sqpr:guarded-by fields are accessed under their mutex and that acquisitions follow //sqpr:lock-order without cycles",
	Run:  run,
}

// edge is one observed "to acquired while from held" pair of lock classes.
type edge struct{ from, to string }

// lockKey is one held mutex: its class and the expression its field was
// selected from ("" for a package-level var).
type lockKey struct{ cls, base string }

// held maps each lock held on every path to the current point to whether
// it is held exclusively (Lock, not RLock).
type held map[lockKey]bool

func run(pass *anz.ModulePass) error {
	g := flow.Build(pass.Pkgs)
	guarded := collectGuarded(pass)
	acquires := transitiveAcquires(g)

	edges := make(map[edge]token.Pos)
	g.Each(func(f *flow.Func) {
		if f.Body() != nil {
			walkHeld(pass, f, guarded, acquires, edges)
		}
	})

	classes := make(map[string]bool)
	for e := range edges {
		classes[e.from] = true
		classes[e.to] = true
	}
	report(pass, edges, declaredOrder(pass, classes))
	return nil
}

// --- lock classes ---

// lockOp recognizes a Lock, RLock, Unlock or RUnlock call on a mutex and
// returns the lock and the method name. Mutexes with no derivable class
// (locals, map elements) return ok=false.
func lockOp(info *types.Info, call *ast.CallExpr) (k lockKey, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return k, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return k, "", false
	}
	if s, isMethod := info.Selections[sel]; !isMethod || !isMutex(s.Recv()) {
		return k, "", false
	}
	k, ok = keyOf(info, sel.X)
	return k, sel.Sel.Name, ok
}

func isMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// keyOf derives the held entry of a mutex expression: class
// "pkg/path.T.field" with base x for x.field of a named struct type, class
// "pkg/path.var" for a package-level var.
func keyOf(info *types.Info, mutex ast.Expr) (lockKey, bool) {
	switch e := ast.Unparen(mutex).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockKey{cls: v.Pkg().Path() + "." + v.Name()}, true
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			if cls, ok := fieldClass(s.Recv(), e.Sel.Name); ok {
				return lockKey{cls, types.ExprString(e.X)}, true
			}
		}
	}
	return lockKey{}, false
}

// fieldClass names field of the named struct type recv (or *recv).
func fieldClass(recv types.Type, field string) (string, bool) {
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field, true
}

// short trims package paths for messages: "sqpr/internal/plan.Service.pmu"
// → "plan.Service.pmu".
func short(cls string) string {
	if i := strings.LastIndex(cls, "/"); i >= 0 {
		return cls[i+1:]
	}
	return cls
}

// --- guarded fields ---

// collectGuarded maps each //sqpr:guarded-by field to its mutex's field
// name, reporting annotations that name no field of the same struct.
func collectGuarded(pass *anz.ModulePass) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
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
					if !fieldNames[d.Args] {
						pass.Reportf(f.Pos(), "guarded-by names %q, which is not a field of this struct", d.Args)
						continue
					}
					for _, name := range f.Names {
						if obj := pkg.TypesInfo.Defs[name]; obj != nil {
							out[obj] = d.Args
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// --- acquire summaries ---

// transitiveAcquires maps each function to the classes a call into it may
// acquire: every function from which a lexically acquiring one is
// reachable over call and defer edges. A spawned goroutine locks on its own
// stack, so launching one while holding a lock is not an ordering edge.
func transitiveAcquires(g *flow.Graph) map[string]map[string]bool {
	byClass := make(map[string]map[string]bool) // class -> functions locking it lexically
	g.Each(func(f *flow.Func) {
		if f.Body() == nil {
			return
		}
		ast.Inspect(f.Body(), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if k, op, ok := lockOp(f.Pkg.TypesInfo, call); ok && (op == "Lock" || op == "RLock") {
					if byClass[k.cls] == nil {
						byClass[k.cls] = make(map[string]bool)
					}
					byClass[k.cls][f.Key] = true
				}
			}
			return true
		})
	})
	out := make(map[string]map[string]bool)
	for cls, seeds := range byClass {
		for key := range g.ReachesAny(seeds, flow.KindCall, flow.KindDefer) {
			if out[key] == nil {
				out[key] = make(map[string]bool)
			}
			out[key][cls] = true
		}
	}
	return out
}

// --- held-set interpretation ---

func walkHeld(pass *anz.ModulePass, f *flow.Func, guarded map[types.Object]string, acquires map[string]map[string]bool, edges map[edge]token.Pos) {
	info := f.Pkg.TypesInfo
	locals := compositeLocals(info, f.Body())
	writes := writtenSelectors(f.Body())
	// Loop bodies are walked twice: report each position once.
	reported := make(map[token.Pos]bool)
	reportOnce := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}

	flow.WalkBody(f.Body(), entryHeld(f), flow.Effects[held]{
		Clone: maps.Clone[held],
		Merge: func(a, b held) held {
			m := make(held)
			for k, excl := range a {
				if bExcl, ok := b[k]; ok {
					m[k] = excl && bExcl
				}
			}
			return m
		},
		Call: func(h held, call *ast.CallExpr, kind flow.CallKind) held {
			if kind == flow.KindGo {
				return h
			}
			k, op, ok := lockOp(info, call)
			switch {
			case !ok:
				key, resolved := flow.ResolveCall(info, call)
				if !resolved {
					return h
				}
				for cls := range acquires[key] {
					for prior := range h {
						// No self-edge from summaries: //sqpr:locked can mean
						// "single-threaded phase", and a callee re-taking the
						// same class is reported in the callee itself.
						if prior.cls != cls {
							addEdge(edges, edge{prior.cls, cls}, call.Lparen)
						}
					}
				}
			case kind == flow.KindDefer:
				// The deferred call runs at return, so the lock stays held
				// for the rest of the body, whoever took it.
				if _, ok := h[k]; !ok {
					h[k] = op == "Unlock"
				}
			case op == "Lock" || op == "RLock":
				for prior := range h {
					if prior.cls == k.cls {
						reportOnce(call.Lparen, "lock %s acquired while already held (self-deadlock)", short(k.cls))
					} else {
						addEdge(edges, edge{prior.cls, k.cls}, call.Lparen)
					}
				}
				h[k] = op == "Lock"
			default:
				delete(h, k)
			}
			return h
		},
		Select: func(h held, sel *ast.SelectorExpr) {
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return
			}
			mu, ok := guarded[s.Obj()]
			if !ok || locals[rootObject(info, sel.X)] {
				return
			}
			cls, _ := fieldClass(s.Recv(), mu)
			base := types.ExprString(sel.X)
			excl, isHeld := h[lockKey{cls, base}]
			if isHeld && (excl || !writes[sel]) {
				return
			}
			need := "held"
			if writes[sel] {
				need = "Lock-ed"
			}
			reportOnce(sel.Pos(), "%s.%s is guarded by %q, which is not %s here (lock %s.%s first, or annotate //sqpr:locked %s if the caller holds it)",
				base, sel.Sel.Name, mu, need, base, mu, mu)
		},
	})
}

// addEdge keeps the first observed site per edge for stable reporting.
func addEdge(edges map[edge]token.Pos, e edge, pos token.Pos) {
	if _, ok := edges[e]; !ok {
		edges[e] = pos
	}
}

// entryHeld resolves a method's //sqpr:locked <name> annotations to the
// locks its caller holds: the receiver's mutex field, or a package-level
// mutex var.
func entryHeld(f *flow.Func) held {
	h := make(held)
	for _, d := range f.Annots {
		if d.Verb != "locked" {
			continue
		}
		name, _, _ := strings.Cut(d.Args, " ")
		if recv := receiver(f); recv != nil {
			obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, f.Pkg.Types, name)
			if v, ok := obj.(*types.Var); ok && isMutex(v.Type()) {
				if cls, ok := fieldClass(recv.Type(), name); ok {
					h[lockKey{cls, recv.Name()}] = true
					continue
				}
			}
		}
		if v, ok := f.Pkg.Types.Scope().Lookup(name).(*types.Var); ok && isMutex(v.Type()) {
			h[lockKey{cls: f.Pkg.PkgPath + "." + name}] = true
		}
	}
	return h
}

func receiver(f *flow.Func) *types.Var {
	if f.Decl == nil {
		return nil
	}
	if obj, ok := f.Pkg.TypesInfo.Defs[f.Decl.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature).Recv()
	}
	return nil
}

// writtenSelectors collects the selectors a body assigns, increments or
// takes the address of.
func writtenSelectors(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	mark := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			out[sel] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
	return out
}

// compositeLocals finds the variables a body binds to composite literals:
// `s := &search{...}`, `c = counter{...}`.
func compositeLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = u.X
			}
			if _, ok := rhs.(*ast.CompositeLit); !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// rootObject resolves the leftmost identifier of a selector chain.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	//sqpr:noctx bounded by the finite selector chain
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.Uses[x]
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

// --- declarations and reporting ---

// declaredOrder parses every //sqpr:lock-order chain in the module,
// resolves the names against observed class keys by suffix match, and
// returns the transitive closure of sanctioned (before, after) pairs.
func declaredOrder(pass *anz.ModulePass, classes map[string]bool) map[edge]bool {
	namePairs := make(map[edge]bool)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					d, ok := anno.Parse(c)
					if !ok || d.Verb != "lock-order" {
						continue
					}
					var chain []string
					for _, part := range strings.Split(d.Args, "<") {
						if p := strings.TrimSpace(part); p != "" {
							chain = append(chain, p)
						}
					}
					for i := 0; i+1 < len(chain); i++ {
						namePairs[edge{chain[i], chain[i+1]}] = true
					}
				}
			}
		}
	}
	// Transitive closure over names (tiny graphs; cubic is fine).
	for changed := true; changed; {
		changed = false
		for a := range namePairs {
			for b := range namePairs {
				if a.to == b.from && !namePairs[edge{a.from, b.to}] {
					namePairs[edge{a.from, b.to}] = true
					changed = true
				}
			}
		}
	}
	match := func(name string) []string {
		var out []string
		for cls := range classes {
			if cls == name || strings.HasSuffix(cls, "."+name) {
				out = append(out, cls)
			}
		}
		return out
	}
	sanctioned := make(map[edge]bool)
	for p := range namePairs {
		for _, from := range match(p.from) {
			for _, to := range match(p.to) {
				sanctioned[edge{from, to}] = true
			}
		}
	}
	return sanctioned
}

// report classifies each observed edge: contradiction of a declaration
// beats cycle membership; sanctioned or acyclic-undeclared edges are
// silent.
func report(pass *anz.ModulePass, edges map[edge]token.Pos, sanctioned map[edge]bool) {
	adj := make(map[string][]string)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur == to {
				return true
			}
			for _, next := range adj[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		return false
	}

	ordered := make([]edge, 0, len(edges))
	for e := range edges {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return edges[ordered[i]] < edges[ordered[j]] })

	for _, e := range ordered {
		pos := edges[e]
		switch {
		case sanctioned[edge{e.to, e.from}]:
			pass.Reportf(pos, "lock %s acquired while holding %s contradicts the declared //sqpr:lock-order (%s < %s)",
				short(e.to), short(e.from), short(e.to), short(e.from))
		case sanctioned[e]:
			// Declared and followed.
		case reaches(e.to, e.from):
			pass.Reportf(pos, "lock-order cycle: %s acquired while holding %s, and %s is elsewhere acquired while %s is held; declare //sqpr:lock-order or break the cycle",
				short(e.to), short(e.from), short(e.from), short(e.to))
		}
	}
}
