package core

import (
	"fmt"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
)

// decode converts a solver point back into a full Assignment: the previous
// allocation with every free variable replaced by its solved value.
func (b *builder) decode(x []float64) (*dsps.Assignment, error) {
	if len(x) != b.model.NumVars() {
		return nil, fmt.Errorf("core: solution length %d != model size %d", len(x), b.model.NumVars())
	}
	next := b.planner.Assignment().Clone()

	// Remove all previous allocation pieces covered by free variables, then
	// add the solved ones in bulk: one merge per slice.
	next.DeleteProvidesFunc(func(p dsps.Provide) bool { return b.hasStream(p.Stream) })
	next.DeleteFlowsFunc(func(f dsps.Flow) bool { return b.hasStream(f.Stream) })
	next.DeleteOpsFunc(func(pl dsps.Placement) bool { return b.hasOp(pl.Op) })

	on := func(v milp.Var) bool { return x[v] > 0.5 }
	var provides []dsps.Provide
	for _, s := range b.freeStreams {
		first := len(provides)
		for _, h := range b.hosts {
			if dv, ok := b.d(h, s); ok && on(dv) {
				if len(provides) > first {
					return nil, fmt.Errorf("core: stream %d provided by two hosts (%d, %d)", s, provides[first].Host, h)
				}
				provides = append(provides, dsps.Provide{Stream: s, Host: h})
			}
		}
	}
	var flows []dsps.Flow
	b.eachFlowVar(func(from, to dsps.HostID, s dsps.StreamID, xv milp.Var) {
		if on(xv) {
			flows = append(flows, dsps.Flow{From: from, To: to, Stream: s})
		}
	})
	var ops []dsps.Placement
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			if zv, _ := b.z(h, o); on(zv) {
				ops = append(ops, dsps.Placement{Host: h, Op: o})
			}
		}
	}
	next.EditProvides(nil, provides)
	next.EditFlows(nil, flows)
	next.EditOps(nil, ops)

	b.pruneUnused(next)
	return next, nil
}

// pruneUnused garbage-collects operators and flows that no provided stream
// depends on. The MILP is free to leave y/z/x at 1 where the objective
// penalty is zero-ish or where constraint slack permits; physically
// deploying them would waste resources, so SQPR instantiates only the
// support of the admitted queries. Unlike dsps.GarbageCollect, which keeps
// every alternative support, it keeps the local producers of a needed
// stream when there are any and otherwise one inflow (any causal source
// suffices).
func (b *builder) pruneUnused(a *dsps.Assignment) {
	// via marks each needed availability (h, s): 1, or 2+m when its support
	// is the inflow from host m. It lives beside the stamps that say which
	// availabilities are needed at all.
	seen := dsps.GetStamps(b.sys)
	defer seen.Release()
	via := seen.Vals()
	var visit func(h dsps.HostID, s dsps.StreamID)
	visit = func(h dsps.HostID, s dsps.StreamID) {
		i := b.sys.HSIndex(h, s)
		if !seen.Stamp(i) {
			return
		}
		via[i] = 1
		if b.sys.IsBaseAt(h, s) {
			return
		}
		produced := false
		for _, op := range b.sys.ProducersOf(s) {
			if a.HasOp(dsps.Placement{Host: h, Op: op}) {
				produced = true
				for _, in := range b.sys.Operators[op].Inputs {
					visit(h, in)
				}
			}
		}
		if produced {
			return
		}
		for _, f := range a.FlowsOf(s) {
			if f.To == h {
				via[i] = 2 + uint32(f.From)
				visit(f.From, s)
				return
			}
		}
	}
	for _, p := range a.Provides {
		visit(p.Host, p.Stream)
	}
	// Allocation pieces of fixed (non-free) queries stay, and so does what
	// fixed consumers of free streams read.
	for _, pl := range a.Ops {
		if !b.hasOp(pl.Op) {
			for _, in := range b.sys.Operators[pl.Op].Inputs {
				visit(pl.Host, in)
			}
		}
	}
	a.DeleteOpsFunc(func(pl dsps.Placement) bool {
		out := b.sys.Operators[pl.Op].Output
		return b.hasOp(pl.Op) && (!seen.Stamped(b.sys.HSIndex(pl.Host, out)) || b.sys.IsBaseAt(pl.Host, out))
	})
	a.DeleteFlowsFunc(func(f dsps.Flow) bool {
		to := b.sys.HSIndex(f.To, f.Stream)
		return b.hasStream(f.Stream) && (!seen.Stamped(to) || via[to] != 2+uint32(f.From))
	})
}
