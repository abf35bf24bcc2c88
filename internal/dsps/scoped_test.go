package dsps_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// sharedState is an allocation shaped like the bench's S15 workloads: the
// 15-host cluster with Zipf-1 popular base streams, filled by the core
// planner from the first 150 queries of its population. Popular streams
// make queries share operators and the tight links make the planner relay,
// so withdrawals here cut into support other queries still use.
var sharedState = sync.OnceValues(func() (*dsps.System, *dsps.Assignment) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 150,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	p := core.NewPlanner(sys, core.DefaultConfig())
	for _, q := range w.Queries {
		if _, err := p.Submit(context.Background(), q); err != nil {
			panic(err)
		}
	}
	return sys, p.Assignment().Clone()
})

// withdrawFixture is one collected, valid allocation to withdraw from.
type withdrawFixture struct {
	name string
	sys  *dsps.System
	a    *dsps.Assignment
}

func withdrawFixtures(t *testing.T) []withdrawFixture {
	t.Helper()
	fig2Sys, fig2 := fig2SharedChain()
	altSys, alt := alternativeProducers()
	relaySys, relay := relayChain()
	largeSys, large := largeState()
	sharedSys, shared := sharedState()
	if relays(sharedSys, shared) == 0 || sharedPlacements(sharedSys, shared) == 0 {
		t.Fatalf("the S15-shaped state has %d relays and %d shared placements; it would not test sharing",
			relays(sharedSys, shared), sharedPlacements(sharedSys, shared))
	}
	return []withdrawFixture{
		{"fig2 shared chain", fig2Sys, fig2},
		{"alternative producers", altSys, alt},
		{"relay chain", relaySys, relay},
		{"uniform large state", largeSys, large},
		{"S15-shaped shared state", sharedSys, shared},
	}
}

// fig2SharedChain is Fig. 2's reuse plan: o1, o2 and o3 produce s3 once, on
// host 0, and one flow takes it to host 1, where o4 and o5 serve q1 and q2.
// s3 is requested too, and served from host 0.
func fig2SharedChain() (*dsps.System, *dsps.Assignment) {
	sys := dsps.NewSystem([]dsps.Host{{ID: 0, CPU: 3, OutBW: 40, InBW: 40}, {ID: 1, CPU: 3, OutBW: 40, InBW: 40}}, 40)
	s1 := sys.AddStream(10, dsps.NoOperator, "s1")
	s2 := sys.AddStream(10, dsps.NoOperator, "s2")
	e1 := sys.AddStream(0.01, dsps.NoOperator, "e1")
	e2 := sys.AddStream(0.01, dsps.NoOperator, "e2")
	sys.PlaceBase(0, s1)
	sys.PlaceBase(0, s2)
	sys.PlaceBase(1, e1)
	sys.PlaceBase(1, e2)
	o1 := sys.AddOperator([]dsps.StreamID{s1}, 10, 1, "o1")
	o2 := sys.AddOperator([]dsps.StreamID{s2}, 10, 1, "o2")
	o3 := sys.AddOperator([]dsps.StreamID{o1.Output, o2.Output}, 10, 1, "o3")
	o4 := sys.AddOperator([]dsps.StreamID{o3.Output, e1}, 10, 1, "o4")
	o5 := sys.AddOperator([]dsps.StreamID{o3.Output, e2}, 10, 1, "o5")
	for _, s := range []dsps.StreamID{o3.Output, o4.Output, o5.Output} {
		sys.SetRequested(s, true)
	}
	a := dsps.NewAssignment()
	for _, pl := range []dsps.Placement{{Host: 0, Op: o1.ID}, {Host: 0, Op: o2.ID}, {Host: 0, Op: o3.ID}, {Host: 1, Op: o4.ID}, {Host: 1, Op: o5.ID}} {
		a.AddOp(pl)
	}
	a.AddFlow(dsps.Flow{From: 0, To: 1, Stream: o3.Output})
	a.SetProvide(o3.Output, 0)
	a.SetProvide(o4.Output, 1)
	a.SetProvide(o5.Output, 1)
	return sys, a
}

// alternativeProducers places both join orders of x⋈y (AddProducerFor) at
// host 2, which receives x from both of its base hosts. x⋈y is served, and
// so is (x⋈y)⋈z, computed at host 2 on x⋈y and z relayed 1→0→2.
func alternativeProducers() (*dsps.System, *dsps.Assignment) {
	sys := dsps.NewSystem([]dsps.Host{
		{ID: 0, CPU: 10, OutBW: 50, InBW: 50}, {ID: 1, CPU: 10, OutBW: 50, InBW: 50}, {ID: 2, CPU: 10, OutBW: 50, InBW: 50},
	}, 30)
	x := sys.AddStream(5, dsps.NoOperator, "x")
	y := sys.AddStream(5, dsps.NoOperator, "y")
	z := sys.AddStream(5, dsps.NoOperator, "z")
	sys.PlaceBase(0, x)
	sys.PlaceBase(1, x)
	sys.PlaceBase(2, y)
	sys.PlaceBase(1, z)
	xy := sys.AddOperator([]dsps.StreamID{x, y}, 1, 1, "xy")
	yx := sys.AddProducerFor(xy.Output, []dsps.StreamID{y, x}, 1, "yx")
	xyz := sys.AddOperator([]dsps.StreamID{xy.Output, z}, 1, 1, "xyz")
	sys.SetRequested(xy.Output, true)
	sys.SetRequested(xyz.Output, true)
	a := dsps.NewAssignment()
	a.AddFlow(dsps.Flow{From: 0, To: 2, Stream: x})
	a.AddFlow(dsps.Flow{From: 1, To: 2, Stream: x})
	a.AddOp(dsps.Placement{Host: 2, Op: xy.ID})
	a.AddOp(dsps.Placement{Host: 2, Op: yx.ID})
	a.AddFlow(dsps.Flow{From: 1, To: 0, Stream: z})
	a.AddFlow(dsps.Flow{From: 0, To: 2, Stream: z})
	a.AddOp(dsps.Placement{Host: 2, Op: xyz.ID})
	a.SetProvide(xy.Output, 2)
	a.SetProvide(xyz.Output, 2)
	return sys, a
}

// relayChain relays base stream x 0→1→2→3; a query at each of hosts 1, 2
// and 3 computes its own filter of x there, so each hop of the relay is
// needed by the queries at and beyond it.
func relayChain() (*dsps.System, *dsps.Assignment) {
	hosts := make([]dsps.Host, 4)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 10, OutBW: 50, InBW: 50}
	}
	sys := dsps.NewSystem(hosts, 30)
	x := sys.AddStream(5, dsps.NoOperator, "x")
	sys.PlaceBase(0, x)
	a := dsps.NewAssignment()
	for h := dsps.HostID(1); h <= 3; h++ {
		f := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "filter")
		sys.SetRequested(f.Output, true)
		a.AddFlow(dsps.Flow{From: h - 1, To: h, Stream: x})
		a.AddOp(dsps.Placement{Host: h, Op: f.ID})
		a.SetProvide(f.Output, h)
	}
	return sys, a
}

// relays counts the flows whose sender received the stream by a flow too.
func relays(sys *dsps.System, a *dsps.Assignment) int {
	n := 0
	for _, f := range a.Flows {
		if slices.ContainsFunc(a.FlowsOf(f.Stream), func(g dsps.Flow) bool { return g.To == f.From }) {
			n++
		}
	}
	return n
}

// sharedPlacements counts the operator outputs (host, stream) in the
// support of more than one provide.
func sharedPlacements(sys *dsps.System, a *dsps.Assignment) int {
	uses := make(map[[2]int]int)
	seen := dsps.GetStamps(sys)
	defer seen.Release()
	for _, p := range a.Provides {
		seen.Next()
		a.WalkSupport(sys, p.Host, p.Stream, seen, func(pl dsps.Placement) bool {
			uses[[2]int{int(pl.Host), int(sys.Operators[pl.Op].Output)}]++
			return true
		}, nil)
	}
	n := 0
	for _, c := range uses {
		if c > 1 {
			n++
		}
	}
	return n
}

// withdrawAll withdraws the provides of a in the given order, requiring
// after each step exactly what DeleteProvide followed by GarbageCollect
// leaves, and an empty allocation at the end.
func withdrawAll(t *testing.T, sys *dsps.System, a *dsps.Assignment, order []dsps.StreamID) {
	t.Helper()
	a = a.Clone()
	for step, q := range order {
		want := a.Clone()
		want.DeleteProvide(q)
		want.GarbageCollect(sys)
		if !a.WithdrawAndCollect(sys, q) {
			t.Fatalf("step %d: query %d was not provided", step, q)
		}
		if !slices.Equal(a.Provides, want.Provides) || !slices.Equal(a.Flows, want.Flows) || !slices.Equal(a.Ops, want.Ops) {
			t.Fatalf("step %d, withdrawing %d:\n got flows %v ops %v\nwant flows %v ops %v", step, q, a.Flows, a.Ops, want.Flows, want.Ops)
		}
	}
	if len(a.Provides)+len(a.Flows)+len(a.Ops) != 0 {
		t.Fatalf("withdrawing every query left %+v", a)
	}
	if a.WithdrawAndCollect(sys, order[0]) {
		t.Fatalf("query %d withdrawn twice", order[0])
	}
}

// TestWithdrawAndCollectMatchesGarbageCollect withdraws every admitted query
// of each fixture, in seeded random orders, and compares each step with a
// full collection.
func TestWithdrawAndCollectMatchesGarbageCollect(t *testing.T) {
	for _, fx := range withdrawFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			if err := fx.a.Validate(fx.sys); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d provides, %d flows (%d relaying), %d placements, %d shared placements",
				len(fx.a.Provides), len(fx.a.Flows), relays(fx.sys, fx.a), len(fx.a.Ops), sharedPlacements(fx.sys, fx.a))
			collected := fx.a.Clone()
			collected.GarbageCollect(fx.sys)
			if len(collected.Flows) != len(fx.a.Flows) || len(collected.Ops) != len(fx.a.Ops) {
				t.Fatal("the fixture is not collected")
			}
			var queries []dsps.StreamID
			for _, p := range fx.a.Provides {
				queries = append(queries, p.Stream)
			}
			orders := 6
			if len(queries) > 10 {
				orders = 2
			}
			for seed := int64(1); seed <= int64(orders); seed++ {
				order := slices.Clone(queries)
				rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				withdrawAll(t, fx.sys, fx.a, order)
			}
		})
	}
}

// FuzzWithdrawAndCollect withdraws the S15-shaped state's queries in the
// order the fuzz bytes pick: each byte chooses among the queries still
// served, and the rest go in ascending order once the bytes run out.
func FuzzWithdrawAndCollect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 7, 31, 2, 90, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, a := sharedState()
		var left []dsps.StreamID
		for _, p := range a.Provides {
			left = append(left, p.Stream)
		}
		order := make([]dsps.StreamID, 0, len(left))
		for _, b := range data {
			if len(left) == 0 {
				break
			}
			i := int(b) % len(left)
			order = append(order, left[i])
			left = slices.Delete(left, i, i+1)
		}
		withdrawAll(t, sys, a, append(order, left...))
	})
}

// TestValidateExtensionMatchesValidate adds single pieces — and the few
// pieces a relay or a shared chain needs — to a valid allocation, and
// requires ValidateExtension to accept exactly what Validate accepts.
func TestValidateExtensionMatchesValidate(t *testing.T) {
	sys := dsps.NewSystem([]dsps.Host{
		{ID: 0, CPU: 10, Mem: 8, OutBW: 20, InBW: 50},
		{ID: 1, CPU: 10, OutBW: 50, InBW: 15},
		{ID: 2, CPU: 10, OutBW: 50, InBW: 50},
		{ID: 3, CPU: 10, OutBW: 50, InBW: 50, State: dsps.HostDown},
	}, 30)
	sys.LinkCap[2][0] = 8
	x := sys.AddStream(5, dsps.NoOperator, "x")
	y := sys.AddStream(5, dsps.NoOperator, "y")
	z := sys.AddStream(5, dsps.NoOperator, "z")
	big := sys.AddStream(17, dsps.NoOperator, "big")
	sys.PlaceBase(0, x)
	sys.PlaceBase(0, y)
	sys.PlaceBase(1, z)
	sys.PlaceBase(3, z)
	sys.PlaceBase(0, big)
	sys.PlaceBase(2, big)
	xy := sys.AddOperator([]dsps.StreamID{x, y}, 4, 2, "xy")
	xyz := sys.AddOperator([]dsps.StreamID{xy.Output, z}, 3, 2, "xyz")
	heavy := sys.AddOperator([]dsps.StreamID{x}, 1, 8, "heavy")
	exact := sys.AddOperator([]dsps.StreamID{x}, 1, 7, "exact")
	fat := sys.AddOperator([]dsps.StreamID{y}, 1, 1, "fat")
	fat.Mem = 9
	unrequested := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "unrequested")
	for _, s := range []dsps.StreamID{xy.Output, xyz.Output, heavy.Output, big} {
		sys.SetRequested(s, true)
	}

	// The valid allocation every case extends: x⋈y at host 0, served there
	// (CPU 2 of 10, out 4 of 20), and the unrequested filter placed beside
	// it (CPU 1).
	base := dsps.NewAssignment()
	base.AddOp(dsps.Placement{Host: 0, Op: xy.ID})
	base.AddOp(dsps.Placement{Host: 0, Op: unrequested.ID})
	base.SetProvide(xy.Output, 0)
	if err := base.Validate(sys); err != nil {
		t.Fatal(err)
	}

	op := func(h dsps.HostID, o *dsps.Operator) dsps.Placement { return dsps.Placement{Host: h, Op: o.ID} }
	flow := func(from, to dsps.HostID, s dsps.StreamID) dsps.Flow { return dsps.Flow{From: from, To: to, Stream: s} }
	for _, tc := range []struct {
		name  string
		ext   dsps.Extension
		valid bool
	}{
		{"operator on a down host", dsps.Extension{Ops: []dsps.Placement{op(3, xy)}}, false},
		{"flow to a down host", dsps.Extension{Flows: []dsps.Flow{flow(0, 3, x)}}, false},
		{"flow from a down host", dsps.Extension{Flows: []dsps.Flow{flow(3, 2, z)}}, false},
		{"provide on a down host", dsps.Extension{Provides: []dsps.Provide{{Stream: heavy.Output, Host: 3}}}, false},
		{"self-flow", dsps.Extension{Flows: []dsps.Flow{flow(0, 0, x)}}, false},
		{"acausal two-flow cycle", dsps.Extension{Flows: []dsps.Flow{flow(1, 2, xyz.Output), flow(2, 1, xyz.Output)}}, false},
		{"operator missing an input", dsps.Extension{Ops: []dsps.Placement{op(1, xy)}}, false},
		{"CPU overflow", dsps.Extension{Ops: []dsps.Placement{op(0, heavy)}}, false},
		{"CPU exactly at the budget", dsps.Extension{Ops: []dsps.Placement{op(0, exact)}}, true},
		{"memory overflow", dsps.Extension{Ops: []dsps.Placement{op(0, fat)}}, false},
		{"out-bandwidth overflow", dsps.Extension{Flows: []dsps.Flow{flow(0, 2, big)}}, false},
		{"in-bandwidth overflow", dsps.Extension{Flows: []dsps.Flow{flow(2, 1, big)}}, false},
		{"link overflow", dsps.Extension{Flows: []dsps.Flow{flow(2, 0, big)}}, false},
		{"provide overflowing out-bandwidth", dsps.Extension{Provides: []dsps.Provide{{Stream: big, Host: 0}}}, false},
		{"valid provide", dsps.Extension{Provides: []dsps.Provide{{Stream: big, Host: 2}}}, true},
		{"provide of an unrequested stream", dsps.Extension{Provides: []dsps.Provide{{Stream: unrequested.Output, Host: 0}}}, false},
		{"provide of an acausal stream", dsps.Extension{Provides: []dsps.Provide{{Stream: xyz.Output, Host: 2}}}, false},
		{"valid flow", dsps.Extension{Flows: []dsps.Flow{flow(0, 1, x)}}, true},
		// The hop beyond the first is derived only through the first, listed
		// after it.
		{"valid relay", dsps.Extension{Flows: []dsps.Flow{flow(1, 2, x), flow(0, 1, x)}}, true},
		// x⋈y is shared: (x⋈y)⋈z runs at host 1 on it and on local z, and
		// is served there; the operator is listed before the flow it reads.
		{"valid shared-chain addition", dsps.Extension{
			Ops:      []dsps.Placement{op(1, xyz)},
			Flows:    []dsps.Flow{flow(0, 1, xy.Output)},
			Provides: []dsps.Provide{{Stream: xyz.Output, Host: 1}},
		}, true},
		{"out-of-range host", dsps.Extension{Flows: []dsps.Flow{flow(0, 9, x)}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := base.Clone()
			for _, pl := range tc.ext.Ops {
				a.AddOp(pl)
			}
			for _, f := range tc.ext.Flows {
				a.AddFlow(f)
			}
			for _, p := range tc.ext.Provides {
				a.SetProvide(p.Stream, p.Host)
			}
			full := a.Validate(sys)
			scoped := a.ValidateExtension(sys, &tc.ext)
			if (scoped == nil) != (full == nil) {
				t.Fatalf("ValidateExtension says %v, Validate says %v", scoped, full)
			}
			if (full == nil) != tc.valid {
				t.Fatalf("Validate says %v, the case expects valid=%v", full, tc.valid)
			}
		})
	}
}

// validFixtures are trialFixtures made valid: the pieces on the down host
// are stripped and what lost its support with them is pruned and collected,
// as a repair leaves the allocation.
var validFixtures = sync.OnceValue(func() []trialFixture {
	var out []trialFixture
	for _, fx := range trialFixtures() {
		a := fx.a.Clone()
		a.StripFailed(fx.sys)
		a.PruneAcausal(fx.sys)
		a.GarbageCollect(fx.sys)
		if err := a.Validate(fx.sys); err != nil {
			panic(fx.name + ": " + err.Error())
		}
		out = append(out, trialFixture{fx.name, fx.sys, a})
	}
	return out
})

// checkExtension extends a copy of fx's valid allocation by the pieces data
// spells, four bytes each — a kind and three bytes of arguments — and
// after every step requires ValidateExtension over everything added since
// the extension began to agree with Validate. Most kinds add what a
// planning call adds: a flow from a holder, a placement whose inputs are
// at hand, a provide of a held stream, a relay; one adds an arbitrary
// piece, and one rolls the extension back to begin another. It returns how
// many checks accepted an extension of two or more pieces, and how many
// refused one.
func checkExtension(t *testing.T, fx trialFixture, data []byte) (accepted, refused int) {
	sys, a := fx.sys, fx.a.Clone()
	var tr dsps.Trial
	tr.Begin(a)
	tr.Usage.Reset(sys, a)
	n := sys.NumHosts()
	var holders []dsps.HostID
	for ; len(data) >= 4; data = data[4:] {
		x := int(data[1])<<8 | int(data[2])
		h := dsps.HostID(int(data[3]) % n)
		switch data[0] % 8 {
		case 0, 1: // a stream the allocation moves, from one of its holders to h
			s := a.Flows[x%len(a.Flows)].Stream
			if holders = a.HoldersOf(sys, s, holders[:0]); len(holders) > 0 {
				if from := holders[x%len(holders)]; from != h {
					tr.AddFlow(dsps.Flow{From: from, To: h, Stream: s})
				}
			}
		case 2, 3: // the next operator from x on whose inputs are all at h
			for i := range len(sys.Operators) {
				op := dsps.OperatorID((x + i) % len(sys.Operators))
				if !slices.ContainsFunc(sys.Operators[op].Inputs, func(in dsps.StreamID) bool { return !a.Available(sys, h, in) }) {
					tr.AddOp(dsps.Placement{Host: h, Op: op})
					break
				}
			}
		case 4: // the next requested, unprovided stream from x on that is held somewhere
			for i := range len(sys.Streams) {
				s := dsps.StreamID((x + i) % len(sys.Streams))
				if _, ok := a.Provider(s); ok || !sys.Streams[s].Requested {
					continue
				}
				if holders = a.HoldersOf(sys, s, holders[:0]); len(holders) > 0 {
					tr.AddProvide(dsps.Provide{Stream: s, Host: holders[int(h)%len(holders)]})
					break
				}
			}
		case 5: // a relay: a flow the allocation holds, sent on into h
			if f := a.Flows[x%len(a.Flows)]; f.To != h {
				tr.AddFlow(dsps.Flow{From: f.To, To: h, Stream: f.Stream})
			}
		case 6: // a flow of any stream between two hosts, or a placement of any operator
			if x%2 == 0 {
				tr.AddFlow(dsps.Flow{From: h, To: dsps.HostID((int(h) + 1 + x%(n-1)) % n), Stream: dsps.StreamID(x % len(sys.Streams))})
			} else {
				tr.AddOp(dsps.Placement{Host: h, Op: dsps.OperatorID(x % len(sys.Operators))})
			}
		case 7: // a new extension
			tr.Rollback(0)
			continue
		}
		ext := tr.Extension(0)
		scoped, full := a.ValidateExtension(sys, ext), a.Validate(sys)
		if (scoped == nil) != (full == nil) {
			t.Fatalf("%s: over %d placements, %d flows and %d provides ValidateExtension says %v, Validate says %v",
				fx.name, len(ext.Ops), len(ext.Flows), len(ext.Provides), scoped, full)
		}
		switch pieces := len(ext.Ops) + len(ext.Flows) + len(ext.Provides); {
		case full != nil:
			refused++
		case pieces >= 2:
			accepted++
		}
	}
	return accepted, refused
}

// extensionSeeds are the fuzz corpus and the property test's first inputs:
// a held stream fetched, consumed and served, then a new extension of one
// arbitrary piece; two relays consumed and served.
var extensionSeeds = [][]byte{
	{},
	{0, 0, 3, 5, 2, 0, 0, 5, 4, 0, 0, 5, 7, 0, 0, 0, 6, 1, 9, 6},
	{5, 0, 7, 2, 5, 0, 7, 9, 2, 2, 0, 9, 4, 1, 1, 9},
}

// TestValidateExtensionOnCallSizedExtensions runs checkExtension on the
// corpus and on seeded random steps, on both fixtures, and requires both
// verdicts to occur on extensions of several pieces.
func TestValidateExtensionOnCallSizedExtensions(t *testing.T) {
	inputs := slices.Clone(extensionSeeds)
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		data := make([]byte, 4*40)
		rng.Read(data)
		inputs = append(inputs, data)
	}
	for _, fx := range validFixtures() {
		accepted, refused := 0, 0
		for _, data := range inputs {
			a, r := checkExtension(t, fx, data)
			accepted += a
			refused += r
		}
		t.Logf("%s: %d multi-piece extensions accepted, %d refused", fx.name, accepted, refused)
		if accepted == 0 || refused == 0 {
			t.Fatalf("%s: %d multi-piece extensions accepted and %d refused; the steps test only one verdict", fx.name, accepted, refused)
		}
	}
}

// FuzzValidateExtension is TestValidateExtensionOnCallSizedExtensions'
// check on the steps the fuzz bytes pick.
func FuzzValidateExtension(f *testing.F) {
	for _, data := range extensionSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range validFixtures() {
			checkExtension(t, fx, data)
		}
	})
}
