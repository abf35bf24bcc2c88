package core

import (
	"fmt"
	"maps"

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

	// Remove all previous allocation pieces covered by free variables.
	maps.DeleteFunc(next.Provides, func(s dsps.StreamID, _ dsps.HostID) bool { return b.hasStream(s) })
	maps.DeleteFunc(next.Flows, func(f dsps.Flow, _ bool) bool { return b.hasStream(f.Stream) })
	maps.DeleteFunc(next.Ops, func(pl dsps.Placement, _ bool) bool { return b.hasOp(pl.Op) })

	on := func(v milp.Var) bool { return x[v] > 0.5 }
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			if dv, ok := b.d(h, s); ok && on(dv) {
				if prev, ok := next.Provides[s]; ok {
					return nil, fmt.Errorf("core: stream %d provided by two hosts (%d, %d)", s, prev, h)
				}
				next.Provides[s] = h
			}
		}
	}
	b.eachFlowVar(func(from, to dsps.HostID, s dsps.StreamID, xv milp.Var) {
		if on(xv) {
			next.Flows[dsps.Flow{From: from, To: to, Stream: s}] = true
		}
	})
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			if zv, _ := b.z(h, o); on(zv) {
				next.Ops[dsps.Placement{Host: h, Op: o}] = true
			}
		}
	}

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
	// is the inflow from host m.
	via := dsps.NewSeen(b.sys)
	var visit func(h dsps.HostID, s dsps.StreamID)
	visit = func(h dsps.HostID, s dsps.StreamID) {
		i := b.sys.HSIndex(h, s)
		if via[i] != 0 {
			return
		}
		via[i] = 1
		if b.sys.IsBaseAt(h, s) {
			return
		}
		produced := false
		for _, op := range b.sys.ProducersOf(s) {
			if a.Ops[dsps.Placement{Host: h, Op: op}] {
				produced = true
				for _, in := range b.sys.Operators[op].Inputs {
					visit(h, in)
				}
			}
		}
		if produced {
			return
		}
		for m := range b.sys.Hosts {
			if a.Flows[dsps.Flow{From: dsps.HostID(m), To: h, Stream: s}] {
				via[i] = 2 + uint32(m)
				visit(dsps.HostID(m), s)
				return
			}
		}
	}
	for s, h := range a.Provides {
		visit(h, s)
	}
	// Allocation pieces of fixed (non-free) queries stay, and so does what
	// fixed consumers of free streams read.
	for pl := range a.Ops {
		if !b.hasOp(pl.Op) {
			for _, in := range b.sys.Operators[pl.Op].Inputs {
				visit(pl.Host, in)
			}
		}
	}
	maps.DeleteFunc(a.Ops, func(pl dsps.Placement, _ bool) bool {
		out := b.sys.Operators[pl.Op].Output
		return b.hasOp(pl.Op) && (via[b.sys.HSIndex(pl.Host, out)] == 0 || b.sys.IsBaseAt(pl.Host, out))
	})
	maps.DeleteFunc(a.Flows, func(f dsps.Flow, _ bool) bool {
		return b.hasStream(f.Stream) && via[b.sys.HSIndex(f.To, f.Stream)] != 2+uint32(f.From)
	})
}
