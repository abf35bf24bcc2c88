package dsps

import (
	"bytes"
	"encoding/json"
	"testing"
)

func roundTripSystem(t *testing.T, sys *System) *System {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSystemJSONRoundTrip(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(7, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(2, b)
	op := sys.AddOperator([]StreamID{a, b}, 2, 1.5, "ab")
	sys.SetRequested(op.Output, true)

	got := roundTripSystem(t, sys)
	if got.NumHosts() != 3 || len(got.Streams) != 3 || len(got.Operators) != 1 {
		t.Fatalf("shape lost: %d hosts %d streams %d ops", got.NumHosts(), len(got.Streams), len(got.Operators))
	}
	if !got.IsBaseAt(0, a) || !got.IsBaseAt(2, b) || got.IsBaseAt(1, a) {
		t.Fatal("base placements lost")
	}
	if ps := got.ProducersOf(op.Output); len(ps) != 1 || ps[0] != op.ID {
		t.Fatalf("producer index lost: %v", ps)
	}
	if !got.Streams[op.Output].Requested {
		t.Fatal("requested flag lost")
	}
	if got.TotalCPU() != sys.TotalCPU() || got.TotalLinkCap() != sys.TotalLinkCap() {
		t.Fatal("capacities lost")
	}
}

func TestSystemJSONRejectsBadVersion(t *testing.T) {
	var sys System
	if err := json.Unmarshal([]byte(`{"version":99,"hosts":[],"streams":[],"operators":[],"link_capacity":[]}`), &sys); err == nil {
		t.Fatal("expected version error")
	}
}

func TestAssignmentJSONRoundTrip(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]StreamID{a, b}, 2, 1, "ab")
	sys.SetRequested(op.Output, true)

	asg := NewAssignment()
	asg.AddFlow(Flow{From: 1, To: 0, Stream: b})
	asg.AddOp(Placement{Host: 0, Op: op.ID})
	asg.SetProvide(op.Output, 0)

	var buf bytes.Buffer
	if err := WriteAssignment(&buf, asg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssignment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasFlow(Flow{From: 1, To: 0, Stream: b}) {
		t.Fatal("flow lost")
	}
	if !got.HasOp(Placement{Host: 0, Op: op.ID}) {
		t.Fatal("placement lost")
	}
	if h, ok := got.Provider(op.Output); !ok || h != 0 {
		t.Fatal("provider lost")
	}
	// The round-tripped assignment must still validate.
	if err := got.Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentJSONDeterministic(t *testing.T) {
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 2, To: 0, Stream: 5})
	asg.AddFlow(Flow{From: 0, To: 1, Stream: 3})
	asg.AddOp(Placement{Host: 1, Op: 9})
	asg.AddOp(Placement{Host: 0, Op: 2})
	j1, err := json.Marshal(asg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(asg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("non-deterministic serialisation")
	}
}

func TestAssignmentJSONRejectsDuplicateProvider(t *testing.T) {
	raw := []byte(`{"version":1,"provides":[{"stream":1,"host":0},{"stream":1,"host":2}],"flows":[],"placements":[]}`)
	var a Assignment
	if err := json.Unmarshal(raw, &a); err == nil {
		t.Fatal("expected duplicate-provider error")
	}
}

func TestSystemJSONValidatesOnLoad(t *testing.T) {
	// An operator referencing a missing stream must fail on load.
	raw := []byte(`{"version":1,"hosts":[{"ID":0,"CPU":1,"OutBW":1,"InBW":1}],
		"streams":[{"ID":0,"Rate":1,"Producer":-1}],
		"operators":[{"ID":0,"Inputs":[5],"Output":0,"Cost":1}],
		"link_capacity":[[0]]}`)
	var sys System
	if err := json.Unmarshal(raw, &sys); err == nil {
		t.Fatal("expected validation error on load")
	}
}

// TestAssignmentJSONRejectsDuplicatePieces: a flow or placement listed twice
// is an error, like a stream provided twice; the maps used to merge them
// silently.
func TestAssignmentJSONRejectsDuplicatePieces(t *testing.T) {
	for _, raw := range []string{
		`{"version":1,"flows":[{"From":0,"To":1,"Stream":3},{"From":2,"To":0,"Stream":1},{"From":0,"To":1,"Stream":3}]}`,
		`{"version":1,"placements":[{"Host":1,"Op":4},{"Host":1,"Op":4}]}`,
	} {
		var a Assignment
		if err := json.Unmarshal([]byte(raw), &a); err == nil {
			t.Errorf("%s: accepted a repeated piece", raw)
		}
	}
}

// TestAssignmentJSONSortsOnDecode: lists in any order are accepted and come
// out in wire order, so the bytes re-encode sorted.
func TestAssignmentJSONSortsOnDecode(t *testing.T) {
	raw := `{"version":1,"provides":[{"stream":9,"host":1},{"stream":2,"host":0}],` +
		`"flows":[{"From":2,"To":0,"Stream":5},{"From":0,"To":1,"Stream":3},{"From":0,"To":2,"Stream":3}],` +
		`"placements":[{"Host":1,"Op":9},{"Host":0,"Op":9},{"Host":3,"Op":2}]}`
	want := `{"provides":[{"stream":2,"host":0},{"stream":9,"host":1}],` +
		`"flows":[{"From":0,"To":1,"Stream":3},{"From":0,"To":2,"Stream":3},{"From":2,"To":0,"Stream":5}],` +
		`"placements":[{"Host":3,"Op":2},{"Host":0,"Op":9},{"Host":1,"Op":9}],"version":1}`
	var a Assignment
	if err := json.Unmarshal([]byte(raw), &a); err != nil {
		t.Fatal(err)
	}
	if err := a.checkOrder(); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("re-encoded\n%s\nwant\n%s", got, want)
	}
}

// TestCheckIDsRejectsDisorder: an in-process assignment whose slices were
// written out of order or with a repeat fails CheckIDs (and so
// plan.CheckState), even when every id is in range.
func TestCheckIDsRejectsDisorder(t *testing.T) {
	sys := smallSystem()
	for i := 0; i < 3; i++ {
		sys.PlaceBase(HostID(i), sys.AddStream(1, NoOperator, "s"))
	}
	op := sys.AddOperator([]StreamID{0}, 1, 1, "o")
	sys.SetRequested(op.Output, true)
	for name, corrupt := range map[string]func(a *Assignment){
		"provides out of order": func(a *Assignment) { a.Provides = []Provide{{Stream: 2, Host: 0}, {Stream: 1, Host: 0}} },
		"stream provided twice": func(a *Assignment) { a.Provides = []Provide{{Stream: 1, Host: 0}, {Stream: 1, Host: 2}} },
		"flows out of order":    func(a *Assignment) { a.Flows = []Flow{{From: 1, To: 0, Stream: 0}, {From: 0, To: 1, Stream: 0}} },
		"flow listed twice":     func(a *Assignment) { a.Flows = []Flow{{From: 0, To: 1, Stream: 0}, {From: 0, To: 1, Stream: 0}} },
		"placements out of order": func(a *Assignment) {
			a.Ops = []Placement{{Host: 0, Op: op.ID}, {Host: 1, Op: 0}, {Host: 0, Op: 0}}
		},
		"placement listed twice": func(a *Assignment) { a.Ops = []Placement{{Host: 0, Op: 0}, {Host: 0, Op: 0}} },
	} {
		a := NewAssignment()
		corrupt(a)
		if a.CheckIDs(sys) == nil {
			t.Errorf("%s: CheckIDs accepted it", name)
		}
	}
}
