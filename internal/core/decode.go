package core

import (
	"fmt"
	"slices"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
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
//
// Only free pieces are candidates, and whether one stays depends only on
// the roots its target is reachable from, so the walk starts from just the
// roots that reach the free pieces' targets (neighbourRoots), not from
// every provide and fixed placement of the allocation. It reports whether
// it deleted anything. A seeded a is the trial's allocation, and then the
// deletions go through the trial, so a rollback to mark 0 undoes them with
// the seed.
func (b *builder) pruneUnused(a *dsps.Assignment) bool {
	var full *dsps.Assignment
	if invariant.Enabled {
		full = a.Snapshot()
		b.prune(full, nil, b.allRoots)
	}
	var t *dsps.Trial
	if a == b.trial.Assignment {
		t = &b.trial
	}
	pieces := len(a.Flows) + len(a.Ops)
	b.prune(a, t, b.neighbourRoots)
	if invariant.Enabled && !(slices.Equal(a.Flows, full.Flows) && slices.Equal(a.Ops, full.Ops)) {
		invariant.Failf("core: pruning from the free pieces' roots kept %d flows and %d placements, from every root %d and %d",
			len(a.Flows), len(a.Ops), len(full.Flows), len(full.Ops))
	}
	return len(a.Flows)+len(a.Ops) < pieces
}

// allRoots lists every root of pruneUnused's walk: each provide, and each
// input of a fixed placement (what fixed consumers of free streams read).
func (b *builder) allRoots(a *dsps.Assignment, _ *dsps.Stamps) {
	for _, p := range a.Provides {
		b.roots = append(b.roots, b.sys.HSIndex(p.Host, p.Stream))
	}
	for _, pl := range a.Ops {
		if !b.hasOp(pl.Op) {
			for _, in := range b.sys.Operators[pl.Op].Inputs {
				b.roots = append(b.roots, b.sys.HSIndex(pl.Host, in))
			}
		}
	}
}

// neighbourRoots lists the roots of allRoots whose walk can reach a free
// piece's target. Those targets carry free streams, so a walk from outside
// can only enter them through a fixed placement reading one: the producer
// of a free stream, or the sender of its flow, would be a free piece, and
// its target one of them already. The roots needed are therefore the
// targets that are provided, and the targets a fixed consumer of a free
// stream reads where it runs — found from the free streams' runs, without
// a walk.
func (b *builder) neighbourRoots(a *dsps.Assignment, seen *dsps.Stamps) {
	sys := b.sys
	target := func(h dsps.HostID, s dsps.StreamID) {
		if i := sys.HSIndex(h, s); seen.Stamp(i) {
			if p, ok := a.Provider(s); ok && p == h {
				b.roots = append(b.roots, i)
			}
		}
	}
	for _, o := range b.freeOps {
		for _, pl := range a.PlacementsOf(o) {
			target(pl.Host, sys.Operators[o].Output)
		}
	}
	for _, s := range b.freeStreams {
		for _, f := range a.FlowsOf(s) {
			target(f.To, s)
		}
	}
	for _, s := range b.freeStreams {
		for _, op := range sys.ConsumersOf(s) {
			if b.hasOp(op) {
				continue
			}
			for _, pl := range a.PlacementsOf(op) {
				if i := sys.HSIndex(pl.Host, s); seen.Stamped(i) {
					b.roots = append(b.roots, i)
				}
			}
		}
	}
	seen.Next()
}

// prune walks back from the roots listRoots appends to b.roots under
// pruneUnused's policy and deletes the free pieces it does not keep: through
// t when t is not nil (a is then t's allocation), else from a directly.
func (b *builder) prune(a *dsps.Assignment, t *dsps.Trial, listRoots func(*dsps.Assignment, *dsps.Stamps)) {
	// via marks each needed availability (h, s): 1, or 2+m when its support
	// is the inflow from host m. It lives beside the stamps that say which
	// availabilities are needed at all.
	seen := dsps.GetStamps(b.sys)
	defer seen.Release()
	b.roots = b.roots[:0]
	listRoots(a, seen)
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
	ns := len(b.sys.Streams)
	for _, i := range b.roots {
		visit(dsps.HostID(i/ns), dsps.StreamID(i%ns))
	}
	// Allocation pieces of fixed (non-free) queries stay: only the runs of
	// free operators and streams are swept.
	dropOp := func(pl dsps.Placement) bool {
		out := b.sys.Operators[pl.Op].Output
		return !seen.Stamped(b.sys.HSIndex(pl.Host, out)) || b.sys.IsBaseAt(pl.Host, out)
	}
	dropFlow := func(f dsps.Flow) bool {
		to := b.sys.HSIndex(f.To, f.Stream)
		return !seen.Stamped(to) || via[to] != 2+uint32(f.From)
	}
	for _, o := range b.freeOps {
		if t != nil {
			t.DeletePlacementsOfFunc(o, dropOp)
		} else {
			a.DeletePlacementsOfFunc(o, dropOp)
		}
	}
	for _, s := range b.freeStreams {
		if t != nil {
			t.DeleteFlowsOfFunc(s, dropFlow)
		} else {
			a.DeleteFlowsOfFunc(s, dropFlow)
		}
	}
}
