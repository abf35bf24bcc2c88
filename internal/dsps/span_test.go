package dsps

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSpansMatchTwoSearches holds flowSpan and opSpan, which gallop from a
// run's start to its end, to two binary searches over the whole slice, on
// random sorted lists whose runs are 0 to 150 pieces long, for every id
// from below the first run to past the last.
func TestSpansMatchTwoSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 400 {
		maxRun := []int{1, 3, 8, 150}[trial%4]
		a := NewAssignment()
		ids := 1 + rng.Intn(40)
		for id := range ids {
			n := rng.Intn(maxRun + 1)
			for h := range n {
				a.Flows = append(a.Flows, Flow{From: HostID(h), To: HostID(h + 1), Stream: StreamID(id)})
				a.Ops = append(a.Ops, Placement{Host: HostID(h), Op: OperatorID(id)})
			}
		}
		for id := -1; id <= ids+1; id++ {
			flo, fhi := a.flowSpan(StreamID(id))
			wlo, _ := slices.BinarySearchFunc(a.Flows, StreamID(id), func(f Flow, s StreamID) int { return int(f.Stream - s) })
			whi, _ := slices.BinarySearchFunc(a.Flows, StreamID(id+1), func(f Flow, s StreamID) int { return int(f.Stream - s) })
			if flo != wlo || fhi != whi {
				t.Fatalf("trial %d: flowSpan(%d) = [%d, %d), want [%d, %d)", trial, id, flo, fhi, wlo, whi)
			}
			olo, ohi := a.opSpan(OperatorID(id))
			wlo, _ = slices.BinarySearchFunc(a.Ops, OperatorID(id), func(p Placement, o OperatorID) int { return int(p.Op - o) })
			whi, _ = slices.BinarySearchFunc(a.Ops, OperatorID(id+1), func(p Placement, o OperatorID) int { return int(p.Op - o) })
			if olo != wlo || ohi != whi {
				t.Fatalf("trial %d: opSpan(%d) = [%d, %d), want [%d, %d)", trial, id, olo, ohi, wlo, whi)
			}
		}
	}
}
