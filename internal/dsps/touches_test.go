package dsps_test

import (
	"math/rand"
	"slices"
	"testing"

	"sqpr/internal/dsps"
)

// TestTouchesTakeMatchesDiff drives a tracked allocation through epochs of
// random edits: in place through every mutator, through clones committed in
// its place or discarded, through an allocation built apart from it and
// through a clone kept from an earlier epoch, both installed with Succeed.
// Each epoch's Take must list exactly the merge diff of the allocation at
// the epoch's start with the one at its end.
func TestTouchesTakeMatchesDiff(t *testing.T) {
	for _, fx := range trialFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			sys, rng := fx.sys, rand.New(rand.NewSource(11))
			var rec dsps.Touches
			cur := fx.a.Clone()
			cur.Track(&rec)
			start, stale := cur.Snapshot(), cur.Clone()
			for epoch := 0; epoch < 60; epoch++ {
				for range 1 + rng.Intn(6) {
					switch rng.Intn(5) {
					case 0, 1:
						editAllocation(sys, cur, rng)
					case 2: // a clone probed, then committed or discarded
						c := cur.Clone()
						for range 1 + rng.Intn(4) {
							editAllocation(sys, c, rng)
						}
						if rng.Intn(2) == 0 {
							c.Succeed(cur)
							cur = c
						}
					case 3: // built apart from the record
						c := cur.Snapshot()
						editAllocation(sys, c, rng)
						c.Succeed(cur)
						cur = c
					case 4: // a clone of an earlier epoch
						editAllocation(sys, stale, rng)
						stale.Succeed(cur)
						cur, stale = stale, cur.Clone()
					}
				}
				got := rec.Take(cur)
				var want dsps.Changes
				var provideDel []dsps.Provide
				want.ProvideSet, provideDel = dsps.DiffSorted(start.Provides, cur.Provides, dsps.CompareProvides)
				for _, p := range provideDel {
					want.ProvideDel = append(want.ProvideDel, p.Stream)
				}
				want.FlowAdd, want.FlowDel = dsps.DiffSorted(start.Flows, cur.Flows, dsps.CompareFlows)
				want.OpAdd, want.OpDel = dsps.DiffSorted(start.Ops, cur.Ops, dsps.ComparePlacements)
				if !slices.Equal(got.ProvideSet, want.ProvideSet) || !slices.Equal(got.ProvideDel, want.ProvideDel) ||
					!slices.Equal(got.FlowAdd, want.FlowAdd) || !slices.Equal(got.FlowDel, want.FlowDel) ||
					!slices.Equal(got.OpAdd, want.OpAdd) || !slices.Equal(got.OpDel, want.OpDel) {
					t.Fatalf("epoch %d: Take listed\n%+v\nthe diff of the epoch's allocations is\n%+v", epoch, got, want)
				}
				start = cur.Snapshot()
			}
		})
	}
}

// editAllocation applies one random edit to a through one of its mutators.
func editAllocation(sys *dsps.System, a *dsps.Assignment, rng *rand.Rand) {
	h := func() dsps.HostID { return dsps.HostID(rng.Intn(sys.NumHosts())) }
	s := func() dsps.StreamID { return dsps.StreamID(rng.Intn(len(sys.Streams))) }
	op := func() dsps.OperatorID { return dsps.OperatorID(rng.Intn(len(sys.Operators))) }
	flow := func() dsps.Flow {
		if len(a.Flows) > 0 && rng.Intn(2) == 0 {
			return a.Flows[rng.Intn(len(a.Flows))]
		}
		return dsps.Flow{From: h(), To: h(), Stream: s()}
	}
	place := func() dsps.Placement {
		if len(a.Ops) > 0 && rng.Intn(2) == 0 {
			return a.Ops[rng.Intn(len(a.Ops))]
		}
		return dsps.Placement{Host: h(), Op: op()}
	}
	switch rng.Intn(13) {
	case 0:
		a.AddFlow(flow())
	case 1:
		a.DeleteFlow(flow())
	case 2:
		a.AddOp(place())
	case 3:
		a.DeleteOp(place())
	case 4:
		a.SetProvide(s(), h())
	case 5:
		if len(a.Provides) > 0 {
			a.DeleteProvide(a.Provides[rng.Intn(len(a.Provides))].Stream)
		}
	case 6:
		f := flow()
		a.DeleteFlowsOfFunc(f.Stream, func(g dsps.Flow) bool { return g.To == f.To })
	case 7:
		pl := place()
		a.DeletePlacementsOfFunc(pl.Op, func(q dsps.Placement) bool { return q.Host == pl.Host })
	case 8:
		down := h()
		a.DeleteFlowsFunc(func(f dsps.Flow) bool { return f.From == down })
	case 9:
		down := h()
		a.DeleteOpsFunc(func(pl dsps.Placement) bool { return pl.Host == down })
	case 10:
		down := h()
		a.DeleteProvidesFunc(func(p dsps.Provide) bool { return p.Host == down })
	case 11:
		a.EditFlows([]dsps.Flow{flow(), flow()}, []dsps.Flow{flow()})
		a.EditOps([]dsps.Placement{place()}, []dsps.Placement{place(), place()})
	case 12:
		a.EditProvides([]dsps.StreamID{s()}, []dsps.Provide{{Stream: s(), Host: h()}})
	}
}

// TestDeleteFuncCallsDelOnce holds the Delete*Func mutators of a tracked
// allocation to one call of del per element, in order, like an untracked
// one's: a predicate with state (here, every other element) deletes the
// same elements either way.
func TestDeleteFuncCallsDelOnce(t *testing.T) {
	for _, fx := range trialFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			var rec dsps.Touches
			tracked, plain := fx.a.Clone(), fx.a.Snapshot()
			tracked.Track(&rec)
			for _, a := range []*dsps.Assignment{tracked, plain} {
				var calls [3]int
				a.DeleteProvidesFunc(func(dsps.Provide) bool { calls[0]++; return calls[0]%2 == 0 })
				a.DeleteFlowsFunc(func(dsps.Flow) bool { calls[1]++; return calls[1]%2 == 0 })
				a.DeleteOpsFunc(func(dsps.Placement) bool { calls[2]++; return calls[2]%2 == 0 })
				if want := [3]int{len(fx.a.Provides), len(fx.a.Flows), len(fx.a.Ops)}; calls != want {
					t.Fatalf("del was called %v times, want once per element %v", calls, want)
				}
			}
			if !slices.Equal(tracked.Provides, plain.Provides) || !slices.Equal(tracked.Flows, plain.Flows) || !slices.Equal(tracked.Ops, plain.Ops) {
				t.Fatalf("tracked allocation kept\n%+v\nuntracked kept\n%+v", tracked, plain)
			}
			got := rec.Take(tracked)
			if len(got.ProvideDel) != len(fx.a.Provides)/2 || len(got.FlowDel) != len(fx.a.Flows)/2 || len(got.OpDel) != len(fx.a.Ops)/2 {
				t.Fatalf("Take listed %d/%d/%d deletions, want half of %d/%d/%d",
					len(got.ProvideDel), len(got.FlowDel), len(got.OpDel), len(fx.a.Provides), len(fx.a.Flows), len(fx.a.Ops))
			}
		})
	}
}

// TestDeleteRunFuncCallsDelOnce holds DeleteFlowsOfFunc and
// DeletePlacementsOfFunc to one call of del per element of the run, in
// order, and to deleting exactly what del reports, tracked or not; Take
// lists the deletions.
func TestDeleteRunFuncCallsDelOnce(t *testing.T) {
	for _, fx := range trialFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			var rec dsps.Touches
			tracked, plain := fx.a.Clone(), fx.a.Snapshot()
			tracked.Track(&rec)
			var wantFlowDel []dsps.Flow
			var wantOpDel []dsps.Placement
			for _, a := range []*dsps.Assignment{tracked, plain} {
				wantFlowDel, wantOpDel = wantFlowDel[:0], wantOpDel[:0]
				for _, s := range slices.Compact(streamsOf(fx.a.Flows)) {
					run := fx.a.FlowsOf(s)
					n := 0
					a.DeleteFlowsOfFunc(s, func(dsps.Flow) bool { n++; return n%2 == 0 })
					var keep []dsps.Flow
					for i, f := range run {
						if i%2 == 1 {
							wantFlowDel = append(wantFlowDel, f)
						} else {
							keep = append(keep, f)
						}
					}
					if n != len(run) || !slices.Equal(a.FlowsOf(s), keep) {
						t.Fatalf("stream %d: del called %d times on a run of %d; kept %v, want %v", s, n, len(run), a.FlowsOf(s), keep)
					}
				}
				for _, op := range slices.Compact(opsOf(fx.a.Ops)) {
					run := fx.a.PlacementsOf(op)
					n := 0
					a.DeletePlacementsOfFunc(op, func(dsps.Placement) bool { n++; return n%2 == 0 })
					var keep []dsps.Placement
					for i, pl := range run {
						if i%2 == 1 {
							wantOpDel = append(wantOpDel, pl)
						} else {
							keep = append(keep, pl)
						}
					}
					if n != len(run) || !slices.Equal(a.PlacementsOf(op), keep) {
						t.Fatalf("operator %d: del called %d times on a run of %d; kept %v, want %v", op, n, len(run), a.PlacementsOf(op), keep)
					}
				}
			}
			got := rec.Take(tracked)
			if !slices.Equal(got.FlowDel, wantFlowDel) || !slices.Equal(got.OpDel, wantOpDel) || len(got.FlowAdd)+len(got.OpAdd)+len(got.ProvideSet)+len(got.ProvideDel) != 0 {
				t.Fatalf("Take listed %+v, want flow deletions %v and placement deletions %v only", got, wantFlowDel, wantOpDel)
			}
		})
	}
}

func streamsOf(fs []dsps.Flow) []dsps.StreamID {
	var out []dsps.StreamID
	for _, f := range fs {
		out = append(out, f.Stream)
	}
	return out
}

func opsOf(ps []dsps.Placement) []dsps.OperatorID {
	var out []dsps.OperatorID
	for _, pl := range ps {
		out = append(out, pl.Op)
	}
	return out
}
