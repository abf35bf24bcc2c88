package plan_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// goldenValues are the states and deltas of testdata/wire_golden.jsonl,
// which holds their encodings as written by the map-backed assignment
// before the sorted slices: a full state, a state with an empty assignment
// (null provides and flows, an empty placement list), a delta touching
// every field, and an empty delta. Pieces are added out of order on
// purpose. A delta of operator costs, which came later, ends the file.
func goldenValues() []any {
	full := dsps.NewAssignment()
	full.SetProvide(7, 2)
	full.SetProvide(3, 0)
	full.AddFlow(dsps.Flow{From: 2, To: 1, Stream: 5})
	full.AddFlow(dsps.Flow{From: 0, To: 2, Stream: 5})
	full.AddFlow(dsps.Flow{From: 1, To: 0, Stream: 4})
	full.AddOp(dsps.Placement{Host: 2, Op: 1})
	full.AddOp(dsps.Placement{Host: 0, Op: 3})
	full.AddOp(dsps.Placement{Host: 1, Op: 1})
	return []any{
		plan.State{Assignment: full, Admitted: []dsps.StreamID{3, 7}, Hosts: []dsps.HostState{dsps.HostUp, dsps.HostDraining, dsps.HostUp, dsps.HostDown}, Aux: json.RawMessage(`{"k":1}`)},
		plan.State{Assignment: dsps.NewAssignment(), Admitted: []dsps.StreamID{}, Hosts: []dsps.HostState{dsps.HostUp, dsps.HostUp}},
		plan.Delta{
			AdmitAdd:   []dsps.StreamID{7},
			AdmitDel:   []dsps.StreamID{2},
			ProvideSet: []dsps.Provide{{Stream: 3, Host: 0}, {Stream: 7, Host: 2}},
			ProvideDel: []dsps.StreamID{5},
			FlowAdd:    []dsps.Flow{{From: 1, To: 0, Stream: 4}, {From: 0, To: 2, Stream: 5}},
			FlowDel:    []dsps.Flow{{From: 3, To: 1, Stream: 2}},
			OpAdd:      []dsps.Placement{{Host: 1, Op: 1}, {Host: 0, Op: 3}},
			OpDel:      []dsps.Placement{{Host: 3, Op: 0}},
			Hosts:      []plan.HostChange{{Host: 1, State: dsps.HostDraining}, {Host: 3, State: dsps.HostDown}},
			Aux:        json.RawMessage(`{"k":2}`),
			AuxSet:     true,
		},
		plan.Delta{},
		plan.Delta{CostSet: []plan.OpCost{{Op: 2, Cost: 1.5}}, CostDel: []dsps.OperatorID{4}},
	}
}

// TestWireGolden: journals and snapshots written before the sorted slices
// must read back and re-encode byte for byte, and the values they hold,
// built through the new API, must encode to the same bytes.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/wire_golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	values := goldenValues()
	if len(lines) != len(values) {
		t.Fatalf("%d golden lines for %d values", len(lines), len(values))
	}
	for i, v := range values {
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, lines[i]) {
			t.Errorf("value %d encodes as\n%s\nwant\n%s", i, got, lines[i])
		}
		var again []byte
		switch v.(type) {
		case plan.State:
			var s plan.State
			err = json.Unmarshal(lines[i], &s)
			again, _ = json.Marshal(s)
		case plan.Delta:
			var d plan.Delta
			err = json.Unmarshal(lines[i], &d)
			again, _ = json.Marshal(d)
		}
		if err != nil || !bytes.Equal(again, lines[i]) {
			t.Errorf("line %d re-encodes as\n%s\nwant\n%s (%v)", i, again, lines[i], err)
		}
	}
}

// randomState draws a state over hosts hosts: random pieces, admitted set,
// host states, aux and operator costs.
func randomState(rng *rand.Rand, hosts int) plan.State {
	a := dsps.NewAssignment()
	host := func() dsps.HostID { return dsps.HostID(rng.Intn(hosts)) }
	for range rng.Intn(30) {
		a.AddFlow(dsps.Flow{From: host(), To: host(), Stream: dsps.StreamID(rng.Intn(12))})
		a.AddOp(dsps.Placement{Host: host(), Op: dsps.OperatorID(rng.Intn(12))})
		a.SetProvide(dsps.StreamID(rng.Intn(12)), host())
	}
	// Admitted is never nil in an exported state: it encodes as [].
	s := plan.State{Assignment: a, Admitted: []dsps.StreamID{}, Hosts: make([]dsps.HostState, hosts)}
	for _, p := range a.Provides {
		if rng.Intn(4) > 0 {
			s.Admitted = append(s.Admitted, p.Stream)
		}
	}
	for h := range s.Hosts {
		s.Hosts[h] = dsps.HostState(rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		s.Aux = json.RawMessage(fmt.Sprintf(`{"n":%d}`, rng.Intn(10)))
	}
	for o := range dsps.OperatorID(12) {
		if rng.Intn(4) == 0 {
			s.Costs = append(s.Costs, plan.OpCost{Op: o, Cost: float64(rng.Intn(3))})
		}
	}
	return s
}

// TestApplyDiffRoundTrip: on random pairs of states, applying Diff(a, b) to
// a copy of a yields b, and neither the diff nor the apply writes to a or b.
func TestApplyDiffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		hosts := 2 + rng.Intn(4)
		a, b := randomState(rng, hosts), randomState(rng, hosts+rng.Intn(3))
		aBytes, bBytes := mustJSON(t, a), mustJSON(t, b)
		d := plan.Diff(a, b)
		got := a.Clone()
		if err := got.Apply(d); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if !got.Equal(b) {
			t.Fatalf("pair %d: Apply(Diff(a, b)) =\n%s\nwant\n%s", i, mustJSON(t, got), bBytes)
		}
		if !bytes.Equal(mustJSON(t, a), aBytes) || !bytes.Equal(mustJSON(t, b), bBytes) {
			t.Fatalf("pair %d: Diff or Apply wrote to its inputs", i)
		}
		if back := plan.Diff(b, got); !back.IsEmpty() {
			t.Fatalf("pair %d: the applied state still differs: %+v", i, back)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestApplyRejectsStrayHost: a delta may change a recorded host or add the
// next one; a negative host or one past that is an error, not a panic or an
// allocation sized by the journal's bytes.
func TestApplyRejectsStrayHost(t *testing.T) {
	for _, h := range []dsps.HostID{-1, 3, 1 << 40} {
		s := plan.State{Assignment: dsps.NewAssignment(), Hosts: make([]dsps.HostState, 2)}
		if err := s.Apply(plan.Delta{Hosts: []plan.HostChange{{Host: h, State: dsps.HostDown}}}); err == nil {
			t.Errorf("host %d: applied to a two-host state", h)
		}
	}
	s := plan.State{Assignment: dsps.NewAssignment(), Hosts: make([]dsps.HostState, 2)}
	if err := s.Apply(plan.Delta{Hosts: []plan.HostChange{{Host: 2, State: dsps.HostDown}, {Host: 3, State: dsps.HostDraining}}}); err != nil {
		t.Fatal(err)
	}
	if want := []dsps.HostState{dsps.HostUp, dsps.HostUp, dsps.HostDown, dsps.HostDraining}; !slices.Equal(s.Hosts, want) {
		t.Fatalf("hosts %v, want %v", s.Hosts, want)
	}
}

// strictly reports whether s is sorted by cmp without repeats.
func strictly[T any](s []T, cmp func(T, T) int) bool {
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

// FuzzDeltaApply is the journal's byte boundary: whatever delta the bytes of
// a record decode to — unsorted or repeated lists, ids of any size, costs of
// any sign — applying it to a valid state must not panic and must leave
// every list of the state sorted without repeats.
func FuzzDeltaApply(f *testing.F) {
	raw, err := os.ReadFile("testdata/wire_golden.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	for _, line := range lines[2:] {
		f.Add(line)
	}
	f.Add([]byte(`{"flow_add":[{"From":2,"To":0,"Stream":9},{"From":0,"To":1,"Stream":3},{"From":2,"To":0,"Stream":9}],"flow_del":[{"From":1,"To":0,"Stream":4},{"From":1,"To":0,"Stream":4}]}`))
	f.Add([]byte(`{"provide_set":[{"stream":7,"host":1},{"stream":3,"host":-4},{"stream":7,"host":0}],"provide_del":[3,3,-1],"admit_add":[9,1,9],"admit_del":[3]}`))
	f.Add([]byte(`{"op_add":[{"Host":-1,"Op":99999},{"Host":0,"Op":0}],"op_del":[{"Host":2,"Op":1}],"hosts":[{"host":-1,"state":1}]}`))
	f.Add([]byte(`{"hosts":[{"host":4,"state":2},{"host":9,"state":0}]}`))
	f.Add([]byte(`{"cost_set":[{"op":9,"cost":2},{"op":3,"cost":1},{"op":9,"cost":0.5}],"cost_del":[3,3,-2,7]}`))
	f.Add([]byte(`{"cost_set":[{"op":-1,"cost":2},{"op":1,"cost":-3}]}`))

	var base plan.State
	if err := json.Unmarshal(lines[0], &base); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d plan.Delta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		s := base.Clone()
		s.Apply(d) // an error leaves s partly applied, and still sorted
		a := s.Assignment
		if !strictly(s.Admitted, cmp.Compare[dsps.StreamID]) || !strictly(a.Provides, dsps.CompareProvides) ||
			!strictly(a.Flows, dsps.CompareFlows) || !strictly(a.Ops, dsps.ComparePlacements) ||
			!strictly(s.Costs, compareOpCosts) {
			t.Fatalf("applying %s left the state unsorted or repeating:\n%s", data, mustJSON(t, s))
		}
	})
}

func compareOpCosts(a, b plan.OpCost) int { return cmp.Compare(a.Op, b.Op) }

// TestCostListBoundary: the cost list of a state read from a journal names
// only operators of the system, each once and in order, at a finite
// non-negative cost. CheckState refuses any other list; Apply refuses a
// delta setting a negative operator or such a cost, and merges the rest
// into a list that stays sorted without repeats.
func TestCostListBoundary(t *testing.T) {
	sys := dsps.NewSystem([]dsps.Host{{CPU: 1}}, 1)
	in := sys.AddStream(1, dsps.NoOperator, "in")
	sys.AddOperator([]dsps.StreamID{in}, 1, 1, "a")
	sys.AddOperator([]dsps.StreamID{in}, 1, 1, "b")
	state := func(costs ...plan.OpCost) plan.State {
		return plan.State{Assignment: dsps.NewAssignment(), Hosts: make([]dsps.HostState, 1), Costs: costs}
	}
	if err := plan.CheckState(sys, state(plan.OpCost{Op: 0, Cost: 0}, plan.OpCost{Op: 1, Cost: 3})); err != nil {
		t.Fatalf("valid costs refused: %v", err)
	}
	for name, c := range map[string][]plan.OpCost{
		"stray operator":    {{Op: 2, Cost: 1}},
		"negative operator": {{Op: -1, Cost: 1}},
		"NaN":               {{Op: 0, Cost: math.NaN()}},
		"+Inf":              {{Op: 0, Cost: math.Inf(1)}},
		"-Inf":              {{Op: 0, Cost: math.Inf(-1)}},
		"negative cost":     {{Op: 0, Cost: -1}},
		"out of order":      {{Op: 1, Cost: 1}, {Op: 0, Cost: 1}},
		"repeated":          {{Op: 1, Cost: 1}, {Op: 1, Cost: 2}},
	} {
		if err := plan.CheckState(sys, state(c...)); err == nil {
			t.Errorf("CheckState accepted costs with a %s", name)
		}
		if name == "stray operator" || name == "out of order" || name == "repeated" {
			continue
		}
		if s := state(); s.Apply(plan.Delta{CostSet: c}) == nil {
			t.Errorf("Apply accepted a cost change with a %s", name)
		}
	}
	s := state(plan.OpCost{Op: 1, Cost: 1}, plan.OpCost{Op: 4, Cost: 1})
	if err := s.Apply(plan.Delta{CostSet: []plan.OpCost{{Op: 3, Cost: 2}, {Op: 0, Cost: 1}, {Op: 3, Cost: 5}}, CostDel: []dsps.OperatorID{4, 4, 9}}); err != nil {
		t.Fatal(err)
	}
	if want := []plan.OpCost{{Op: 0, Cost: 1}, {Op: 1, Cost: 1}, {Op: 3, Cost: 5}}; !slices.Equal(s.Costs, want) {
		t.Fatalf("costs %v, want %v", s.Costs, want)
	}
}

// TestApplyEventsRejectsInvalidCost: a cost event from outside the program
// may name any operator and carry any number. ApplyEvents refuses the whole
// event set, before it changes anything, if one names an operator outside
// the table or a cost that is not a finite non-negative number.
func TestApplyEventsRejectsInvalidCost(t *testing.T) {
	sys := dsps.NewSystem([]dsps.Host{{CPU: 1}, {CPU: 1}}, 1)
	in := sys.AddStream(1, dsps.NoOperator, "in")
	op := sys.AddOperator([]dsps.StreamID{in}, 1, 2, "a").ID
	for _, bad := range []plan.Event{
		plan.CostDrift(op+1, 1), plan.CostDrift(-1, 1), plan.CostDrift(op, math.NaN()),
		plan.CostDrift(op, math.Inf(1)), plan.CostDrift(op, math.Inf(-1)), plan.CostDrift(op, -1),
	} {
		err := plan.ApplyEvents(sys, []plan.Event{plan.FailHost(1), plan.CostDrift(op, 5), bad})
		if !errors.Is(err, plan.ErrInvalidEvent) {
			t.Errorf("event %+v: err = %v, want ErrInvalidEvent", bad, err)
		}
		if sys.Hosts[1].State != dsps.HostUp || sys.Operators[op].Cost != 2 || sys.BuiltCosts() != nil {
			t.Fatalf("event %+v: a refused event set changed the system", bad)
		}
	}
	if err := plan.ApplyEvents(sys, []plan.Event{plan.FailHost(1), plan.CostDrift(op, 5)}); err != nil {
		t.Fatal(err)
	}
	if got := plan.ExportedState(sys, dsps.NewAssignment(), nil).Costs; !slices.Equal(got, []plan.OpCost{{Op: op, Cost: 5}}) {
		t.Fatalf("exported costs %v after a cost event", got)
	}
	// Back at the cost the system was built with, the operator leaves the list.
	if err := plan.ApplyEvents(sys, []plan.Event{plan.CostDrift(op, 2)}); err != nil {
		t.Fatal(err)
	}
	if got := plan.ExportedState(sys, dsps.NewAssignment(), nil).Costs; got != nil {
		t.Fatalf("exported costs %v at the built costs", got)
	}
}
