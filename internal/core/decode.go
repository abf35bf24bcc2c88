package core

import (
	"fmt"

	"sqpr/internal/dsps"
)

// decode converts a solver point back into a full Assignment: the previous
// allocation with every free variable replaced by its solved value.
func (b *builder) decode(x []float64) (*dsps.Assignment, error) {
	if len(x) != b.model.NumVars() {
		return nil, fmt.Errorf("core: solution length %d != model size %d", len(x), b.model.NumVars())
	}
	next := b.p.Assignment().Clone()

	// Remove all previous allocation pieces covered by free variables.
	for s := range next.Provides {
		if b.free[s] {
			delete(next.Provides, s)
		}
	}
	for f := range next.Flows {
		if b.free[f.Stream] {
			delete(next.Flows, f)
		}
	}
	for pl := range next.Ops {
		if b.freeOpSet[pl.Op] {
			delete(next.Ops, pl)
		}
	}

	on := func(v float64) bool { return v > 0.5 }
	for hk, dv := range b.dVar {
		if on(x[dv]) {
			if prev, ok := next.Provides[hk.s]; ok && prev != hk.h {
				return nil, fmt.Errorf("core: stream %d provided by two hosts (%d, %d)", hk.s, prev, hk.h)
			}
			next.Provides[hk.s] = hk.h
		}
	}
	for fk, xv := range b.xVar {
		if on(x[xv]) {
			next.Flows[dsps.Flow{From: fk.from, To: fk.to, Stream: fk.s}] = true
		}
	}
	for zk, zv := range b.zVar {
		if on(x[zv]) {
			next.Ops[dsps.Placement{Host: zk.h, Op: zk.o}] = true
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
		if !b.freeOpSet[pl.Op] {
			for _, in := range b.sys.Operators[pl.Op].Inputs {
				visit(pl.Host, in)
			}
		}
	}
	for pl := range a.Ops {
		out := b.sys.Operators[pl.Op].Output
		if b.freeOpSet[pl.Op] && (via[b.sys.HSIndex(pl.Host, out)] == 0 || b.sys.IsBaseAt(pl.Host, out)) {
			delete(a.Ops, pl)
		}
	}
	for f := range a.Flows {
		if b.free[f.Stream] && via[b.sys.HSIndex(f.To, f.Stream)] != 2+uint32(f.From) {
			delete(a.Flows, f)
		}
	}
}
