package core

import (
	"reflect"
	"testing"

	"sqpr/internal/dsps"
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
}
