// Package walorder checks the module's durability ordering contract: no
// request may be acknowledged while state changes it depends on are not
// yet journaled. The protocol points are annotated —
//
//	//sqpr:ack-point      this function releases an acknowledgement
//	//sqpr:journal-point  this function makes prior mutations durable
//	//sqpr:mutates        this function (or interface method) changes
//	                      journaled state
//
// — and the analyzer propagates all three facts bottom-up over the
// whole-module call graph, then abstractly interprets every function body
// with one bit of state: "mutated but not yet journaled". Calling into an
// ack-point (directly or transitively) while that bit is set is the exact
// shape of the bug where a client observes an admission the WAL can still
// lose.
package walorder

import (
	"go/ast"
	"go/token"

	"sqpr/internal/analysis/anz"
	"sqpr/internal/analysis/flow"
)

// Analyzer is the module-level walorder pass.
var Analyzer = &anz.ModuleAnalyzer{
	Name: "walorder",
	Doc:  "report paths that may acknowledge a request before journaling its state changes",
	Run:  run,
}

// summaryKinds: facts propagate over synchronous edges only. A goroutine
// or a stashed method value acks on its own schedule relative to this
// body, so its ordering is not this body's responsibility.
var summaryKinds = []flow.CallKind{flow.KindCall, flow.KindDefer}

func run(pass *anz.ModulePass) error {
	g := flow.Build(pass.Pkgs)
	mayAck := g.ReachesAny(seeds(g.Annotated("ack-point")), summaryKinds...)
	mayJournal := g.ReachesAny(seeds(g.Annotated("journal-point")), summaryKinds...)
	mayMutate := g.ReachesAny(seeds(g.Annotated("mutates")), summaryKinds...)

	g.Each(func(f *flow.Func) {
		body := f.Body()
		if body == nil {
			return
		}
		reported := make(map[token.Pos]bool)
		flow.WalkBody(body, false, flow.Effects[bool]{
			Clone: func(d bool) bool { return d },
			// A state is dirty if any path into it is: merges are unions.
			Merge: func(a, b bool) bool { return a || b },
			Call: func(dirty bool, call *ast.CallExpr, kind flow.CallKind) bool {
				key, ok := flow.ResolveCall(f.Pkg.TypesInfo, call)
				if !ok {
					return dirty
				}
				if kind == flow.KindGo {
					// The launch itself neither journals nor acks in this
					// body's order; the goroutine's body is checked on its
					// own.
					return dirty
				}
				switch {
				case mayJournal[key]:
					// The callee flushes; if it also mutates or acks, its
					// own body carries the internal ordering check.
					return false
				case dirty && mayAck[key]:
					if !reported[call.Lparen] {
						reported[call.Lparen] = true
						pass.Reportf(call.Lparen,
							"acknowledges before journaling: %s may reach an //sqpr:ack-point while state changes are not yet journaled", short(key))
					}
					return dirty
				case mayMutate[key]:
					return true
				}
				return dirty
			},
		})
	})
	return nil
}

func seeds(m map[string]string) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// short trims the package path off a function key for readable messages:
// "(*sqpr/internal/plan.Service).reply" → "(*plan.Service).reply".
func short(key string) string {
	out := make([]byte, 0, len(key))
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			start = i + 1
			continue
		}
		if key[i] == '.' || key[i] == ')' || key[i] == '(' || key[i] == '*' {
			out = append(out, key[start:i+1]...)
			start = i + 1
		}
	}
	return string(append(out, key[start:]...))
}
