package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// TestPruneUnusedKeepsOneSupport pins the rule that separates decode's
// pruning from dsps.GarbageCollect: where a needed stream is produced
// locally its inflows go, where it is not exactly one inflow stays (the
// one from the lowest host), and pieces of fixed streams are left alone.
func TestPruneUnusedKeepsOneSupport(t *testing.T) {
	hosts := make([]dsps.Host, 4)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 10, OutBW: 100, InBW: 100}
	}
	sys := dsps.NewSystem(hosts, 100)
	x := sys.AddStream(1, dsps.NoOperator, "x")
	y := sys.AddStream(1, dsps.NoOperator, "y")
	fixed := sys.AddStream(1, dsps.NoOperator, "fixed")
	for h := range hosts {
		sys.PlaceBase(dsps.HostID(h), x)
		sys.PlaceBase(dsps.HostID(h), fixed)
	}
	sys.PlaceBase(0, y)
	sys.PlaceBase(1, y)
	xy := sys.AddOperator([]dsps.StreamID{x, y}, 1, 1, "xy")
	sys.SetRequested(xy.Output, true)

	flow := func(from, to dsps.HostID, s dsps.StreamID) dsps.Flow {
		return dsps.Flow{From: from, To: to, Stream: s}
	}
	a := dsps.NewAssignment()
	a.SetProvide(xy.Output, 3)
	a.AddOp(dsps.Placement{Host: 3, Op: xy.ID})
	a.AddOp(dsps.Placement{Host: 2, Op: xy.ID}) // produced where nobody reads it
	a.AddFlow(flow(2, 3, xy.Output))            // redundant: xy is produced at 3
	a.AddFlow(flow(0, 3, y))                    // two inflows of y into 3:
	a.AddFlow(flow(1, 3, y))                    // one suffices
	a.AddFlow(flow(0, 2, y))                    // fed only the unread producer
	a.AddFlow(flow(0, 1, fixed))                // not free: untouched

	want := dsps.NewAssignment()
	want.SetProvide(xy.Output, 3)
	want.AddOp(dsps.Placement{Host: 3, Op: xy.ID})
	want.AddFlow(flow(0, 3, y))
	want.AddFlow(flow(0, 1, fixed))

	// Free: the closure of xy — x, y and xy itself, with its one operator.
	b := NewPlanner(sys, Config{}).newBuilder([]dsps.StreamID{xy.Output}, false)
	b.pruneUnused(a)
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("after pruneUnused:\n got %+v\nwant %+v", a, want)
	}
	if err := a.Validate(sys); err != nil {
		t.Fatal(err)
	}

	// A fixed placement reading a free stream is a root too: g(xy) runs at
	// host 1, served from nowhere, and keeps the inflow of xy it reads and,
	// through it, the producer at host 0 — which the root search over the
	// free pieces must find, since no provide reaches them.
	g := sys.AddOperator([]dsps.StreamID{xy.Output}, 1, 1, "g")
	a = dsps.NewAssignment()
	a.AddOp(dsps.Placement{Host: 0, Op: xy.ID})
	a.AddOp(dsps.Placement{Host: 2, Op: xy.ID}) // read by no one
	a.AddFlow(flow(0, 1, xy.Output))
	a.AddFlow(flow(0, 1, y))
	a.AddOp(dsps.Placement{Host: 1, Op: g.ID})
	want = a.Clone()
	want.DeleteOp(dsps.Placement{Host: 2, Op: xy.ID})
	want.DeleteFlow(flow(0, 1, y))
	b = NewPlanner(sys, Config{}).newBuilder([]dsps.StreamID{xy.Output}, false)
	full := a.Clone()
	b.prune(full, nil, b.allRoots)
	b.prune(a, nil, b.neighbourRoots)
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(full, want) {
		t.Fatalf("pruning around a fixed consumer:\n  from neighbour roots %+v\n  from every root %+v\nwant %+v", a, full, want)
	}
}

// TestPruneFromNeighbourRootsMatchesAllRoots: on the seeds of a seeded S15
// walk, strewn with free placements and flows at random (the leftovers a
// solver point can carry), pruning from the roots the free pieces reach
// leaves exactly what pruning from every root does. The walk leaves most
// sharers fixed, so fixed consumers of free streams are common.
func TestPruneFromNeighbourRootsMatchesAllRoots(t *testing.T) {
	w := newChurnWalk()
	w.p.cfg.MaxFreeStreams = 8
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for step := 0; step < 80; step++ {
		q := w.next(t)
		w.p.beginCall(plan.SubmitConfig{})
		b := w.p.newBuilder([]dsps.StreamID{q}, false)
		seed := b.seed(ctx)
		for range 6 {
			h, m := b.hosts[rng.Intn(len(b.hosts))], b.hosts[rng.Intn(len(b.hosts))]
			if s := b.freeStreams[rng.Intn(len(b.freeStreams))]; h != m {
				seed.AddFlow(dsps.Flow{From: h, To: m, Stream: s})
			}
			if len(b.freeOps) > 0 {
				seed.AddOp(dsps.Placement{Host: h, Op: b.freeOps[rng.Intn(len(b.freeOps))]})
			}
		}
		full := seed.Clone()
		b.prune(full, nil, b.allRoots)
		b.prune(seed, nil, b.neighbourRoots)
		if !reflect.DeepEqual(seed, full) {
			t.Fatalf("step %d: from neighbour roots %+v\nfrom every root %+v", step, seed, full)
		}
		if _, err := w.p.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
}
