package dsps_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// refAssignment is the allocation as it was stored before the sorted
// slices: three hash maps, with GarbageCollect, PruneAcausal, StripFailed,
// AffectedQueries and the wire encoding written the way they were then. It
// is the oracle of TestAssignmentMatchesMapReference.
type refAssignment struct {
	provides map[dsps.StreamID]dsps.HostID
	flows    map[dsps.Flow]bool
	ops      map[dsps.Placement]bool
}

func newRef() *refAssignment {
	return &refAssignment{map[dsps.StreamID]dsps.HostID{}, map[dsps.Flow]bool{}, map[dsps.Placement]bool{}}
}

func (r *refAssignment) available(sys *dsps.System, h dsps.HostID, s dsps.StreamID) bool {
	if sys.IsBaseAt(h, s) {
		return true
	}
	for m := range sys.Hosts {
		if r.flows[dsps.Flow{From: dsps.HostID(m), To: h, Stream: s}] {
			return true
		}
	}
	for _, op := range sys.ProducersOf(s) {
		if r.ops[dsps.Placement{Host: h, Op: op}] {
			return true
		}
	}
	return false
}

// walk is WalkSupport over the maps, probing every sender host.
func (r *refAssignment) walk(sys *dsps.System, h dsps.HostID, s dsps.StreamID, seen []bool, onFlow func(dsps.Flow) bool) bool {
	i := sys.HSIndex(h, s)
	if seen[i] {
		return true
	}
	seen[i] = true
	if sys.IsBaseAt(h, s) {
		return true
	}
	for _, op := range sys.ProducersOf(s) {
		if r.ops[dsps.Placement{Host: h, Op: op}] {
			for _, in := range sys.Operators[op].Inputs {
				if !r.walk(sys, h, in, seen, onFlow) {
					return false
				}
			}
		}
	}
	for m := range sys.Hosts {
		f := dsps.Flow{From: dsps.HostID(m), To: h, Stream: s}
		if !r.flows[f] {
			continue
		}
		if onFlow != nil && !onFlow(f) {
			return false
		}
		if !r.walk(sys, f.From, s, seen, onFlow) {
			return false
		}
	}
	return true
}

func (r *refAssignment) garbageCollect(sys *dsps.System) {
	seen := make([]bool, len(sys.Hosts)*len(sys.Streams))
	for s, h := range r.provides {
		r.walk(sys, h, s, seen, nil)
	}
	needed := func(h dsps.HostID, s dsps.StreamID) bool { return seen[sys.HSIndex(h, s)] && !sys.IsBaseAt(h, s) }
	for pl := range r.ops {
		if !needed(pl.Host, sys.Operators[pl.Op].Output) {
			delete(r.ops, pl)
		}
	}
	for f := range r.flows {
		if !needed(f.To, f.Stream) {
			delete(r.flows, f)
		}
	}
}

func (r *refAssignment) affectedQueries(sys *dsps.System, affected func(dsps.HostID) bool) []dsps.StreamID {
	var out []dsps.StreamID
	untouched := func(f dsps.Flow) bool { return !affected(f.From) }
	for q, h := range r.provides {
		seen := make([]bool, len(sys.Hosts)*len(sys.Streams))
		if affected(h) || !r.walk(sys, h, q, seen, untouched) {
			out = append(out, q)
		}
	}
	slices.Sort(out)
	return out
}

func (r *refAssignment) stripFailed(sys *dsps.System) {
	for pl := range r.ops {
		if !sys.HostUsable(pl.Host) {
			delete(r.ops, pl)
		}
	}
	for f := range r.flows {
		if !sys.HostUsable(f.From) || !sys.HostUsable(f.To) {
			delete(r.flows, f)
		}
	}
	for s, h := range r.provides {
		if !sys.HostUsable(h) {
			delete(r.provides, s)
		}
	}
}

func (r *refAssignment) pruneAcausal(sys *dsps.System) {
	derived := make([]bool, len(sys.Hosts)*len(sys.Streams))
	for h := range sys.Hosts {
		for s := range sys.Streams {
			derived[sys.HSIndex(dsps.HostID(h), dsps.StreamID(s))] = sys.IsBaseAt(dsps.HostID(h), dsps.StreamID(s)) && sys.HostUsable(dsps.HostID(h))
		}
	}
	inputsDerived := func(pl dsps.Placement) bool {
		for _, in := range sys.Operators[pl.Op].Inputs {
			if !derived[sys.HSIndex(pl.Host, in)] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for pl := range r.ops {
			if out := sys.HSIndex(pl.Host, sys.Operators[pl.Op].Output); !derived[out] && inputsDerived(pl) {
				derived[out], changed = true, true
			}
		}
		for f := range r.flows {
			if to := sys.HSIndex(f.To, f.Stream); !derived[to] && derived[sys.HSIndex(f.From, f.Stream)] {
				derived[to], changed = true, true
			}
		}
	}
	for pl := range r.ops {
		if !inputsDerived(pl) {
			delete(r.ops, pl)
		}
	}
	for f := range r.flows {
		if !derived[sys.HSIndex(f.From, f.Stream)] {
			delete(r.flows, f)
		}
	}
	for s, h := range r.provides {
		if !derived[sys.HSIndex(h, s)] {
			delete(r.provides, s)
		}
	}
}

// marshal is the map-era MarshalJSON: keys sorted into wire order, flows and
// provides appended (null when empty), placements always a list.
func (r *refAssignment) marshal() ([]byte, error) {
	out := struct {
		Provides []dsps.Provide   `json:"provides"`
		Flows    []dsps.Flow      `json:"flows"`
		Ops      []dsps.Placement `json:"placements"`
		Version  int              `json:"version"`
	}{Version: 1}
	for _, f := range r.sortedFlows() {
		out.Flows = append(out.Flows, f)
	}
	out.Ops = r.sortedOps()
	for _, p := range r.sortedProvides() {
		out.Provides = append(out.Provides, p)
	}
	return json.Marshal(out)
}

func (r *refAssignment) sortedProvides() []dsps.Provide {
	out := make([]dsps.Provide, 0, len(r.provides))
	for s, h := range r.provides {
		out = append(out, dsps.Provide{Stream: s, Host: h})
	}
	slices.SortFunc(out, dsps.CompareProvides)
	return out
}

func (r *refAssignment) sortedFlows() []dsps.Flow {
	out := make([]dsps.Flow, 0, len(r.flows))
	for f := range r.flows {
		out = append(out, f)
	}
	slices.SortFunc(out, dsps.CompareFlows)
	return out
}

func (r *refAssignment) sortedOps() []dsps.Placement {
	out := make([]dsps.Placement, 0, len(r.ops))
	for pl := range r.ops {
		out = append(out, pl)
	}
	slices.SortFunc(out, dsps.ComparePlacements)
	return out
}

// TestAssignmentMatchesMapReference runs random sequences of every mutator
// and every whole-assignment pass on the sorted-slice Assignment and on the
// map reference side by side. After each step the two must agree on
// membership, lengths, iteration order (the slices are the reference's
// sorted keys), the lookups, the per-stream and per-operator sub-slices and
// the JSON bytes.
func TestAssignmentMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 5, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50})
		cfg := workload.DefaultConfig()
		cfg.NumBaseStreams, cfg.NumQueries, cfg.Arities, cfg.Seed = 10, 12, []int{2, 3}, seed
		workload.Generate(sys, cfg)
		rng := rand.New(rand.NewSource(seed))
		host := func() dsps.HostID { return dsps.HostID(rng.Intn(len(sys.Hosts))) }
		stream := func() dsps.StreamID { return dsps.StreamID(rng.Intn(len(sys.Streams))) }
		flow := func() dsps.Flow { return dsps.Flow{From: host(), To: host(), Stream: stream()} }
		placement := func() dsps.Placement {
			return dsps.Placement{Host: host(), Op: dsps.OperatorID(rng.Intn(len(sys.Operators)))}
		}

		a, ref := dsps.NewAssignment(), newRef()
		for step := 0; step < 1500; step++ {
			var op string
			switch k := rng.Intn(100); {
			case k < 8:
				op = "SetProvide"
				s, h := stream(), host()
				a.SetProvide(s, h)
				ref.provides[s] = h
			case k < 12:
				op = "DeleteProvide"
				s := stream()
				_, want := ref.provides[s]
				if got := a.DeleteProvide(s); got != want {
					t.Fatalf("seed %d step %d: DeleteProvide(%d) = %v, want %v", seed, step, s, got, want)
				}
				delete(ref.provides, s)
			case k < 40:
				op = "AddFlow"
				f := flow()
				if got, want := a.AddFlow(f), !ref.flows[f]; got != want {
					t.Fatalf("seed %d step %d: AddFlow(%v) = %v, want %v", seed, step, f, got, want)
				}
				ref.flows[f] = true
			case k < 48:
				op = "DeleteFlow"
				f := flow()
				if len(a.Flows) > 0 && rng.Intn(2) == 0 {
					f = a.Flows[rng.Intn(len(a.Flows))]
				}
				if got, want := a.DeleteFlow(f), ref.flows[f]; got != want {
					t.Fatalf("seed %d step %d: DeleteFlow(%v) = %v, want %v", seed, step, f, got, want)
				}
				delete(ref.flows, f)
			case k < 70:
				op = "AddOp"
				pl := placement()
				if got, want := a.AddOp(pl), !ref.ops[pl]; got != want {
					t.Fatalf("seed %d step %d: AddOp(%v) = %v, want %v", seed, step, pl, got, want)
				}
				ref.ops[pl] = true
			case k < 76:
				op = "DeleteOp"
				pl := placement()
				if len(a.Ops) > 0 && rng.Intn(2) == 0 {
					pl = a.Ops[rng.Intn(len(a.Ops))]
				}
				if got, want := a.DeleteOp(pl), ref.ops[pl]; got != want {
					t.Fatalf("seed %d step %d: DeleteOp(%v) = %v, want %v", seed, step, pl, got, want)
				}
				delete(ref.ops, pl)
			case k < 82:
				// Unsorted lists with repeats, as a damaged journal could hold.
				op = "Edit"
				var pdel []dsps.StreamID
				var pset []dsps.Provide
				var fdel, fadd []dsps.Flow
				var odel, oadd []dsps.Placement
				for range rng.Intn(4) {
					pdel = append(pdel, stream())
					pset = append(pset, dsps.Provide{Stream: stream(), Host: host()})
					fdel, fadd = append(fdel, flow()), append(fadd, flow())
					odel, oadd = append(odel, placement()), append(oadd, placement())
				}
				a.EditProvides(pdel, pset)
				a.EditFlows(fdel, fadd)
				a.EditOps(odel, oadd)
				for _, s := range pdel {
					delete(ref.provides, s)
				}
				for _, p := range pset {
					ref.provides[p.Stream] = p.Host
				}
				for _, f := range fdel {
					delete(ref.flows, f)
				}
				for _, f := range fadd {
					ref.flows[f] = true
				}
				for _, pl := range odel {
					delete(ref.ops, pl)
				}
				for _, pl := range oadd {
					ref.ops[pl] = true
				}
			case k < 86:
				// Writes to the original must not reach the clone, nor the
				// clone's the original (checked against ref below).
				op = "Clone"
				c, cBytes := a.Clone(), mustMarshal(t, a)
				f, pl, s, h := flow(), placement(), stream(), host()
				a.AddFlow(f)
				a.DeleteOp(pl)
				a.SetProvide(s, h)
				ref.flows[f] = true
				delete(ref.ops, pl)
				ref.provides[s] = h
				if !bytes.Equal(mustMarshal(t, c), cBytes) {
					t.Fatalf("seed %d step %d: writes to the original reached its clone", seed, step)
				}
				c.AddFlow(flow())
				c.DeleteOp(placement())
				c.DeleteProvide(stream())
			case k < 92:
				op = "GarbageCollect"
				a.GarbageCollect(sys)
				ref.garbageCollect(sys)
			case k < 96:
				op = "StripFailed+PruneAcausal"
				h := host()
				sys.SetHostState(h, dsps.HostDown)
				down := func(m dsps.HostID) bool { return m == h }
				if got, want := a.AffectedQueries(sys, down), ref.affectedQueries(sys, down); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: AffectedQueries = %v, want %v", seed, step, got, want)
				}
				a.StripFailed(sys)
				ref.stripFailed(sys)
				sameAsRef(t, sys, a, ref)
				a.PruneAcausal(sys)
				ref.pruneAcausal(sys)
				sys.SetHostState(h, dsps.HostUp)
			default:
				op = "PruneAcausal"
				a.PruneAcausal(sys)
				ref.pruneAcausal(sys)
			}
			if t.Failed() {
				return
			}
			if !sameAsRef(t, sys, a, ref) {
				t.Fatalf("seed %d step %d: after %s", seed, step, op)
			}
		}
	}
}

func mustMarshal(t *testing.T, a *dsps.Assignment) []byte {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameAsRef reports (with t.Errorf) every way a differs from ref.
func sameAsRef(t *testing.T, sys *dsps.System, a *dsps.Assignment, ref *refAssignment) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}
	if !slices.Equal(a.Provides, ref.sortedProvides()) {
		fail("Provides = %v, want %v", a.Provides, ref.sortedProvides())
	}
	if !slices.Equal(a.Flows, ref.sortedFlows()) {
		fail("Flows = %v, want %v", a.Flows, ref.sortedFlows())
	}
	if !slices.Equal(a.Ops, ref.sortedOps()) {
		fail("Ops = %v, want %v", a.Ops, ref.sortedOps())
	}
	want, err := ref.marshal()
	if got := mustMarshal(t, a); err != nil || !bytes.Equal(got, want) {
		fail("JSON = %s, want %s (%v)", got, want, err)
	}
	for s := range sys.Streams {
		s := dsps.StreamID(s)
		h, got := a.Provider(s)
		if wantH, want := ref.provides[s]; got != want || h != wantH {
			fail("Provider(%d) = %d, %v; want %d, %v", s, h, got, wantH, want)
		}
		var flows []dsps.Flow
		for _, f := range ref.sortedFlows() {
			if f.Stream == s {
				flows = append(flows, f)
			}
		}
		if got := a.FlowsOf(s); !slices.Equal(got, flows) {
			fail("FlowsOf(%d) = %v, want %v", s, got, flows)
		}
		for h := range sys.Hosts {
			if got, want := a.Available(sys, dsps.HostID(h), s), ref.available(sys, dsps.HostID(h), s); got != want {
				fail("Available(%d, %d) = %v, want %v", h, s, got, want)
			}
			for m := range sys.Hosts {
				f := dsps.Flow{From: dsps.HostID(m), To: dsps.HostID(h), Stream: s}
				if a.HasFlow(f) != ref.flows[f] {
					fail("HasFlow(%v) = %v", f, a.HasFlow(f))
				}
			}
		}
	}
	for op := range sys.Operators {
		op := dsps.OperatorID(op)
		var on []dsps.Placement
		for _, pl := range ref.sortedOps() {
			if pl.Op == op {
				on = append(on, pl)
			}
		}
		if got := a.PlacementsOf(op); !slices.Equal(got, on) {
			fail("PlacementsOf(%d) = %v, want %v", op, got, on)
		}
		for h := range sys.Hosts {
			pl := dsps.Placement{Host: dsps.HostID(h), Op: op}
			if a.HasOp(pl) != ref.ops[pl] {
				fail("HasOp(%v) = %v", pl, a.HasOp(pl))
			}
		}
	}
	return ok
}
