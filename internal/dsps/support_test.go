package dsps

import (
	"reflect"
	"testing"
)

// supportCase is one hand-built allocation on smallSystem's three hosts,
// with what derive and WalkSupport must say about it. Expectations are
// written out by hand: nothing here compares against another traversal.
type supportCase struct {
	name  string
	build func(sys *System, a *Assignment) (root avail, streams map[string]StreamID)
	// derived lists every non-base (host, stream name) derive must reach;
	// everything else that is not a usable base placement must stay false.
	derived []named
	// stopAfter, when > 0, makes the visitors stop the walk at that many
	// pieces seen.
	stopAfter int
	wantOps   []Placement
	wantFlows []Flow
	wantDone  bool
}

type avail struct {
	h HostID
	s StreamID
}

type named struct {
	h HostID
	s string
}

func supportCases() []supportCase {
	return []supportCase{
		{
			name: "two alternative producers",
			build: func(sys *System, a *Assignment) (avail, map[string]StreamID) {
				x := sys.AddStream(5, NoOperator, "x")
				y := sys.AddStream(5, NoOperator, "y")
				sys.PlaceBase(0, x)
				sys.PlaceBase(0, y)
				op1 := sys.AddOperator([]StreamID{x, y}, 1, 1, "xy")
				op2 := sys.AddProducerFor(op1.Output, []StreamID{y, x}, 1, "yx")
				a.AddOp(Placement{Host: 0, Op: op1.ID})
				a.AddOp(Placement{Host: 0, Op: op2.ID})
				return avail{0, op1.Output}, map[string]StreamID{"xy": op1.Output}
			},
			derived:  []named{{0, "xy"}},
			wantOps:  []Placement{{Host: 0, Op: 0}, {Host: 0, Op: 1}},
			wantDone: true,
		},
		{
			name: "relay chain",
			build: func(sys *System, a *Assignment) (avail, map[string]StreamID) {
				x := sys.AddStream(5, NoOperator, "x")
				sys.PlaceBase(0, x)
				a.AddFlow(Flow{From: 0, To: 1, Stream: x})
				a.AddFlow(Flow{From: 1, To: 2, Stream: x})
				return avail{2, x}, map[string]StreamID{"x": x}
			},
			derived:   []named{{1, "x"}, {2, "x"}},
			wantFlows: []Flow{{From: 1, To: 2, Stream: 0}, {From: 0, To: 1, Stream: 0}},
			wantDone:  true,
		},
		{
			name: "two-host feedback cycle",
			build: func(sys *System, a *Assignment) (avail, map[string]StreamID) {
				x := sys.AddStream(5, NoOperator, "x")
				sys.PlaceBase(2, x) // the only real source is not involved
				a.AddFlow(Flow{From: 0, To: 1, Stream: x})
				a.AddFlow(Flow{From: 1, To: 0, Stream: x})
				return avail{0, x}, map[string]StreamID{"x": x}
			},
			derived:   nil, // neither end of the loop has a real source
			wantFlows: []Flow{{From: 1, To: 0, Stream: 0}, {From: 0, To: 1, Stream: 0}},
			wantDone:  true, // and the walk still terminates
		},
		{
			name: "base stream on a down host",
			build: func(sys *System, a *Assignment) (avail, map[string]StreamID) {
				x := sys.AddStream(5, NoOperator, "x")
				sys.PlaceBase(2, x)
				sys.SetHostState(2, HostDown)
				a.AddFlow(Flow{From: 2, To: 0, Stream: x})
				return avail{0, x}, map[string]StreamID{"x": x}
			},
			derived:   nil, // not even at host 2 itself
			wantFlows: []Flow{{From: 2, To: 0, Stream: 0}},
			wantDone:  true,
		},
		{
			name: "visitor stops the walk",
			build: func(sys *System, a *Assignment) (avail, map[string]StreamID) {
				x := sys.AddStream(5, NoOperator, "x")
				y := sys.AddStream(5, NoOperator, "y")
				sys.PlaceBase(0, x)
				sys.PlaceBase(1, y)
				op := sys.AddOperator([]StreamID{x, y}, 1, 1, "xy")
				a.AddFlow(Flow{From: 0, To: 2, Stream: x})
				a.AddFlow(Flow{From: 1, To: 2, Stream: y})
				a.AddOp(Placement{Host: 2, Op: op.ID})
				return avail{2, op.Output}, map[string]StreamID{"x": x, "y": y, "xy": op.Output}
			},
			derived:   []named{{2, "x"}, {2, "y"}, {2, "xy"}},
			stopAfter: 2, // the operator, then its first input's flow; y's flow is never seen
			wantOps:   []Placement{{Host: 2, Op: 0}},
			wantFlows: []Flow{{From: 0, To: 2, Stream: 0}},
			wantDone:  false,
		},
	}
}

func TestDeriveAndWalkSupport(t *testing.T) {
	for _, tc := range supportCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, a := smallSystem(), NewAssignment()
			root, streams := tc.build(sys, a)

			want := make([]bool, len(sys.Hosts)*len(sys.Streams))
			for h := range sys.Hosts {
				for s := range sys.Streams {
					want[sys.HSIndex(HostID(h), StreamID(s))] = sys.IsBaseAt(HostID(h), StreamID(s)) && sys.HostUsable(HostID(h))
				}
			}
			for _, d := range tc.derived {
				want[sys.HSIndex(d.h, streams[d.s])] = true
			}
			seen := GetStamps(sys)
			defer seen.Release()
			a.derive(sys, seen)
			got := make([]bool, len(want))
			for h := range sys.Hosts {
				for s := range sys.Streams {
					got[sys.HSIndex(HostID(h), StreamID(s))] = derived(sys, seen, HostID(h), StreamID(s))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("derive = %v, want %v", got, want)
			}

			var ops []Placement
			var flows []Flow
			more := func() bool { return tc.stopAfter == 0 || len(ops)+len(flows) < tc.stopAfter }
			seen.Next()
			done := a.WalkSupport(sys, root.h, root.s, seen,
				func(pl Placement) bool { ops = append(ops, pl); return more() },
				func(f Flow) bool { flows = append(flows, f); return more() })
			if done != tc.wantDone {
				t.Errorf("WalkSupport ran to completion = %v, want %v", done, tc.wantDone)
			}
			if !reflect.DeepEqual(ops, tc.wantOps) {
				t.Errorf("visited placements %v, want %v", ops, tc.wantOps)
			}
			if !reflect.DeepEqual(flows, tc.wantFlows) {
				t.Errorf("visited flows %v, want %v", flows, tc.wantFlows)
			}
		})
	}
}

// TestWalkSupportEpochs: roots walked under one epoch share what they have
// visited; a new epoch on the same array starts over without clearing it,
// and so does one on an array handed back to the pool and taken again.
func TestWalkSupportEpochs(t *testing.T) {
	sys, a := smallSystem(), NewAssignment()
	x := sys.AddStream(5, NoOperator, "x")
	sys.PlaceBase(0, x)
	a.AddFlow(Flow{From: 0, To: 1, Stream: x})
	a.AddFlow(Flow{From: 1, To: 2, Stream: x})

	seen := GetStamps(sys)
	count := 0
	onFlow := func(Flow) bool { count++; return true }
	for i, step := range []struct {
		root      HostID
		start     string // "next": a fresh epoch; "pool": back to the pool and out again; "wrap": the epoch wraps
		wantFlows int
	}{
		{root: 1, wantFlows: 1},                // 0→1
		{root: 2, wantFlows: 1},                // only 1→2 is new: (1, x) was reached by the first root
		{root: 2, wantFlows: 0},                // nothing is new
		{root: 2, start: "next", wantFlows: 2}, // a fresh epoch forgets all of it
		{root: 2, start: "pool", wantFlows: 2}, // so does a pooled array taken again
		{root: 2, start: "wrap", wantFlows: 2}, // and one whose epoch wraps to zero
	} {
		switch step.start {
		case "next":
			seen.Next()
		case "pool":
			seen.Release()
			seen = GetStamps(sys)
		case "wrap":
			seen.epoch = ^uint32(0)
			seen.Next()
		}
		count = 0
		if !a.WalkSupport(sys, step.root, x, seen, nil, onFlow) {
			t.Fatalf("step %d: walk stopped", i)
		}
		if count != step.wantFlows {
			t.Errorf("step %d (root %d, start %q): saw %d flows, want %d", i, step.root, step.start, count, step.wantFlows)
		}
	}
	seen.Release()
}

// TestGarbageCollectKeepsEveryAlternative pins the rule that separates
// GarbageCollect from core's decode pruning: both producers and both
// inflows of a needed stream stay; only what no provide reaches goes.
func TestGarbageCollectKeepsEveryAlternative(t *testing.T) {
	sys, a := smallSystem(), NewAssignment()
	x := sys.AddStream(5, NoOperator, "x")
	y := sys.AddStream(5, NoOperator, "y")
	sys.PlaceBase(0, x)
	sys.PlaceBase(1, x)
	sys.PlaceBase(2, y)
	op1 := sys.AddOperator([]StreamID{x, y}, 1, 1, "xy")
	op2 := sys.AddProducerFor(op1.Output, []StreamID{y, x}, 1, "yx")
	orphan := sys.AddOperator([]StreamID{y}, 1, 1, "y'")
	sys.SetRequested(op1.Output, true)

	keep := NewAssignment()
	keep.AddFlow(Flow{From: 0, To: 2, Stream: x})
	keep.AddFlow(Flow{From: 1, To: 2, Stream: x})
	keep.AddOp(Placement{Host: 2, Op: op1.ID})
	keep.AddOp(Placement{Host: 2, Op: op2.ID})
	keep.SetProvide(op1.Output, 2)

	*a = *keep.Clone()
	a.AddOp(Placement{Host: 2, Op: orphan.ID})
	a.AddFlow(Flow{From: 2, To: 0, Stream: y})
	a.AddFlow(Flow{From: 1, To: 0, Stream: x}) // into a needed host that has x as a base stream
	a.GarbageCollect(sys)
	if !reflect.DeepEqual(a, keep) {
		t.Fatalf("after GarbageCollect:\n got %+v\nwant %+v", a, keep)
	}
	if err := a.Validate(sys); err != nil {
		t.Fatal(err)
	}
}
