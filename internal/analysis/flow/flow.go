// Package flow builds a whole-module call graph over the anz loader's
// typed ASTs, the substrate of the interprocedural analyzers (walorder,
// locks). Nodes are functions keyed by their
// types.Func.FullName — a string key on purpose: the loader type-checks
// each target package from source but resolves its imports from export
// data, so the same function is represented by distinct types.Object
// instances in different packages, while its full name is stable.
//
// Edges record static calls, deferred calls, `go` launches, and bare
// references (a method value like `s.finish` handed to someone who may
// call it later). Function literals become synthetic nodes keyed
// "parent$n" with a reference edge from their parent, so a closure's
// behaviour is summarized like any named function's.
//
// Per-function facts (//sqpr: annotations from doc comments, including
// interface method declarations) are collected at build time; ReachesAny
// propagates them bottom-up across packages: a function "may ack" when an
// //sqpr:ack-point function is reachable from it through any edge kind.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"sqpr/internal/analysis/anno"
	"sqpr/internal/analysis/anz"
)

// CallKind classifies one edge of the call graph.
type CallKind uint8

// Edge kinds.
const (
	// KindCall is a plain static call f() / x.M().
	KindCall CallKind = iota
	// KindDefer is a deferred call.
	KindDefer
	// KindGo is a goroutine launch.
	KindGo
	// KindRef is a function value taken without being called here (method
	// value, function passed as callback): whoever receives it may call it.
	KindRef
)

// String names the edge kind for diagnostics.
func (k CallKind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindDefer:
		return "defer"
	case KindGo:
		return "go"
	case KindRef:
		return "ref"
	}
	return fmt.Sprintf("CallKind(%d)", uint8(k))
}

// Site is one outgoing edge of a function: a call, defer, go or reference
// to Callee at Pos.
type Site struct {
	Callee string
	Pos    token.Pos
	Kind   CallKind
	// Call is the call expression for call/defer/go sites; nil for refs.
	Call *ast.CallExpr
}

// Func is one call-graph node. Exactly one of Decl and Lit is non-nil for
// functions with bodies; interface methods carry annotations but neither.
type Func struct {
	// Key is the stable cross-package identity (types.Func.FullName, with a
	// "$n" suffix appended per nested function literal).
	Key string
	// Decl is the declaration for named functions and methods.
	Decl *ast.FuncDecl
	// Lit is the literal for synthetic closure nodes.
	Lit *ast.FuncLit
	// Pkg is the package the body (or interface declaration) lives in.
	Pkg *anz.Package
	// Sites lists outgoing edges in source order.
	Sites []Site
	// Annots holds the //sqpr: directives of the doc comment (for interface
	// methods: the method field's doc).
	Annots []anno.Directive
}

// Body returns the function's block, nil for bodyless nodes (interface
// methods, external declarations).
func (f *Func) Body() *ast.BlockStmt {
	switch {
	case f.Decl != nil:
		return f.Decl.Body
	case f.Lit != nil:
		return f.Lit.Body
	}
	return nil
}

// Graph is the whole-module call graph.
type Graph struct {
	Fset  *token.FileSet
	funcs map[string]*Func
	order []string // insertion order: packages sorted, files and decls in source order
}

// Func returns the node with the given key, nil when unknown (calls into
// packages outside the loaded set resolve to keys without nodes).
func (g *Graph) Func(key string) *Func { return g.funcs[key] }

// Each visits every node in deterministic order.
func (g *Graph) Each(fn func(*Func)) {
	for _, k := range g.order {
		fn(g.funcs[k])
	}
}

// Annotated returns the keys of functions carrying the given //sqpr: verb,
// mapped to the directive's args.
func (g *Graph) Annotated(verb string) map[string]string {
	out := make(map[string]string)
	for _, k := range g.order {
		for _, d := range g.funcs[k].Annots {
			if d.Verb == verb {
				out[k] = d.Args
			}
		}
	}
	return out
}

// ReachesAny returns every function key from which at least one seed is
// reachable through edges of the given kinds (seeds themselves included).
// This is the bottom-up summary primitive: with seeds = ack-point
// functions, the result is the "may acknowledge" bit of every function in
// the module.
func (g *Graph) ReachesAny(seeds map[string]bool, kinds ...CallKind) map[string]bool {
	use := map[CallKind]bool{}
	if len(kinds) == 0 {
		use = map[CallKind]bool{KindCall: true, KindDefer: true, KindGo: true, KindRef: true}
	}
	for _, k := range kinds {
		use[k] = true
	}
	// Reverse adjacency restricted to the requested edge kinds.
	callers := make(map[string][]string)
	for _, key := range g.order {
		for _, s := range g.funcs[key].Sites {
			if use[s.Kind] {
				callers[s.Callee] = append(callers[s.Callee], key)
			}
		}
	}
	out := make(map[string]bool, len(seeds))
	var queue []string
	for s := range seeds {
		if !seeds[s] {
			continue
		}
		out[s] = true
		queue = append(queue, s)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range callers[cur] {
			if !out[caller] {
				out[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return out
}

// Build constructs the call graph over the loaded packages. Packages must
// share one FileSet (anz.Load guarantees this).
func Build(pkgs []*anz.Package) *Graph {
	g := &Graph{funcs: make(map[string]*Func)}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					g.addDecl(pkg, d)
				case *ast.GenDecl:
					g.addInterfaceMethods(pkg, d)
				}
			}
		}
	}
	return g
}

func (g *Graph) add(f *Func) *Func {
	if prev, ok := g.funcs[f.Key]; ok {
		return prev
	}
	g.funcs[f.Key] = f
	g.order = append(g.order, f.Key)
	return f
}

func (g *Graph) addDecl(pkg *anz.Package, d *ast.FuncDecl) {
	obj, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
	if obj == nil {
		return
	}
	f := g.add(&Func{Key: obj.FullName(), Decl: d, Pkg: pkg, Annots: directives(d.Doc)})
	if d.Body != nil {
		b := &siteBuilder{g: g, pkg: pkg, f: f}
		b.stmt(d.Body, KindCall)
		sort.Slice(f.Sites, func(i, j int) bool { return f.Sites[i].Pos < f.Sites[j].Pos })
	}
}

// addInterfaceMethods registers annotated interface method declarations as
// bodyless nodes, so a contract like //sqpr:mutates can live on
// plan.QueryPlanner.Submit and apply to every dynamic call through the
// interface.
func (g *Graph) addInterfaceMethods(pkg *anz.Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		for _, m := range it.Methods.List {
			ann := directives(m.Doc)
			if len(ann) == 0 || len(m.Names) == 0 {
				continue
			}
			for _, name := range m.Names {
				if obj, ok := pkg.TypesInfo.Defs[name].(*types.Func); ok {
					g.add(&Func{Key: obj.FullName(), Pkg: pkg, Annots: ann})
				}
			}
		}
	}
}

func directives(doc *ast.CommentGroup) []anno.Directive {
	if doc == nil {
		return nil
	}
	var out []anno.Directive
	for _, c := range doc.List {
		if d, ok := anno.Parse(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// siteBuilder walks one function body collecting outgoing edges; nested
// function literals become child nodes with their own builders.
type siteBuilder struct {
	g    *Graph
	pkg  *anz.Package
	f    *Func
	lits int
}

// stmt dispatches a node, tagging any directly-contained call with kind
// (defer/go statements re-tag their call).
func (b *siteBuilder) stmt(n ast.Node, kind CallKind) {
	switch x := n.(type) {
	case nil:
		return
	case *ast.DeferStmt:
		b.call(x.Call, KindDefer)
		return
	case *ast.GoStmt:
		b.call(x.Call, KindGo)
		return
	case *ast.CallExpr:
		b.call(x, kind)
		return
	case *ast.FuncLit:
		b.lit(x, KindRef)
		return
	case *ast.SelectorExpr:
		b.ref(x.Sel, x)
		// Still visit the receiver expression: it may contain calls.
		b.stmt(x.X, kind)
		return
	case *ast.Ident:
		b.ref(x, x)
		return
	}
	// Generic traversal one level down; recursion re-dispatches.
	var children []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			children = append(children, c)
		}
		return false
	})
	for _, c := range children {
		b.stmt(c, kind)
	}
}

// call records an edge for one call expression and walks its operands.
func (b *siteBuilder) call(call *ast.CallExpr, kind CallKind) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		b.lit(lit, kind)
	} else if key, ok := ResolveCall(b.pkg.TypesInfo, call); ok {
		b.f.Sites = append(b.f.Sites, Site{Callee: key, Pos: call.Lparen, Kind: kind, Call: call})
	}
	// Receiver chains and arguments may contain further calls and refs.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		b.stmt(sel.X, KindCall)
	}
	for _, arg := range call.Args {
		b.stmt(arg, KindCall)
	}
}

// ref records a reference edge when an identifier in non-call position
// resolves to a function.
func (b *siteBuilder) ref(id *ast.Ident, at ast.Expr) {
	if fn, ok := b.pkg.TypesInfo.Uses[id].(*types.Func); ok {
		b.f.Sites = append(b.f.Sites, Site{Callee: fn.FullName(), Pos: at.Pos(), Kind: KindRef})
	}
}

// lit creates the child node for a function literal and records the edge
// from the parent (KindCall when immediately invoked, else defer/go/ref).
func (b *siteBuilder) lit(lit *ast.FuncLit, kind CallKind) {
	b.lits++
	child := b.g.add(&Func{
		Key: fmt.Sprintf("%s$%d", b.f.Key, b.lits),
		Lit: lit,
		Pkg: b.pkg,
	})
	b.f.Sites = append(b.f.Sites, Site{Callee: child.Key, Pos: lit.Pos(), Kind: kind})
	cb := &siteBuilder{g: b.g, pkg: b.pkg, f: child}
	cb.stmt(lit.Body, KindCall)
	sort.Slice(child.Sites, func(i, j int) bool { return child.Sites[i].Pos < child.Sites[j].Pos })
}

// ResolveCall resolves a call expression to its static callee's key.
// Dynamic calls — function-typed variables, fields, and results — do not
// resolve; calls through an interface resolve to the interface method's
// key, which is where contract annotations for dynamic dispatch live.
func ResolveCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn.FullName(), true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.FullName(), true
			}
			return "", false // func-typed field: dynamic
		}
		// Package-qualified call (fmt.Errorf).
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn.FullName(), true
		}
	}
	return "", false
}
