package dsps

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeedSystems builds representative systems for the fuzz corpus:
// hosts in every availability state, base placements, alternative
// producers, memory budgets and link capacities all appear, so mutations
// start from inputs that exercise every decode path.
func fuzzSeedSystems(t interface{ Fatal(...any) }) [][]byte {
	var corpus [][]byte

	small := NewSystem([]Host{
		{ID: 0, CPU: 8, OutBW: 40, InBW: 40},
		{ID: 1, CPU: 8, OutBW: 40, InBW: 40, Mem: 16, State: HostDraining},
		{ID: 2, CPU: 4, OutBW: 20, InBW: 20, State: HostDown},
	}, 25)
	a := small.AddStream(5, NoOperator, "a")
	b := small.AddStream(3, NoOperator, "b")
	small.PlaceBase(0, a)
	small.PlaceBase(1, a)
	small.PlaceBase(1, b)
	op := small.AddOperator([]StreamID{a, b}, 2, 1.5, "a⋈b")
	small.AddProducerFor(op.Output, []StreamID{b, a}, 2.5, "b⋈a")
	small.SetRequested(op.Output, true)
	small.Operators[0].Mem = 4

	tiny := NewSystem([]Host{{ID: 0, CPU: 1, OutBW: 1, InBW: 1}}, 0)
	s := tiny.AddStream(1, NoOperator, "s")
	tiny.PlaceBase(0, s)

	for _, sys := range []*System{small, tiny} {
		enc, err := json.Marshal(sys)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, enc)
	}
	return corpus
}

// FuzzSystemJSON checks the decode→encode→decode round trip: any input the
// decoder accepts must re-encode deterministically, decode again to an
// equivalent system (including host states and base placements), and never
// panic — malformed hosts, streams, operators, base placements and link
// matrices must all be rejected with an error instead.
func FuzzSystemJSON(f *testing.F) {
	for _, seed := range fuzzSeedSystems(f) {
		f.Add(seed)
	}
	// Hand-written corner cases: empty object, bad version, out-of-range
	// base placement, ragged link matrix, unknown host state.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"hosts":[],"streams":[],"operators":[],"link_capacity":[]}`))
	f.Add([]byte(`{"version":1,"hosts":[{"ID":0,"CPU":1,"OutBW":1,"InBW":1,"Mem":0,"State":0}],"streams":[],"operators":[],"link_capacity":[[0]],"base_placements":[{"host":9,"stream":0}]}`))
	f.Add([]byte(`{"version":1,"hosts":[{"ID":0,"CPU":1,"OutBW":1,"InBW":1,"Mem":0,"State":0}],"streams":[],"operators":[],"link_capacity":[[0,1]]}`))
	f.Add([]byte(`{"version":1,"hosts":[{"ID":0,"CPU":1,"OutBW":1,"InBW":1,"Mem":0,"State":7}],"streams":[],"operators":[],"link_capacity":[[0]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sys System
		if err := json.Unmarshal(data, &sys); err != nil {
			return // rejected inputs are fine; panics are not
		}
		// Accepted systems must validate (UnmarshalJSON guarantees it).
		if err := sys.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid system: %v", err)
		}

		enc1, err := json.Marshal(&sys)
		if err != nil {
			t.Fatalf("cannot re-encode accepted system: %v", err)
		}
		var sys2 System
		if err := json.Unmarshal(enc1, &sys2); err != nil {
			t.Fatalf("re-encoded system does not decode: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(&sys2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not deterministic after round trip:\n%s\nvs\n%s", enc1, enc2)
		}

		// Structural equivalence, including the host-state field.
		if !reflect.DeepEqual(sys.Hosts, sys2.Hosts) {
			t.Fatalf("hosts differ after round trip: %+v vs %+v", sys.Hosts, sys2.Hosts)
		}
		if !reflect.DeepEqual(sys.Streams, sys2.Streams) {
			t.Fatal("streams differ after round trip")
		}
		if !reflect.DeepEqual(sys.Operators, sys2.Operators) {
			t.Fatal("operators differ after round trip")
		}
		if !reflect.DeepEqual(sys.LinkCap, sys2.LinkCap) {
			t.Fatal("link capacities differ after round trip")
		}
		for h := range sys.Hosts {
			for s := range sys.Streams {
				if sys.IsBaseAt(HostID(h), StreamID(s)) != sys2.IsBaseAt(HostID(h), StreamID(s)) {
					t.Fatalf("base placement (%d,%d) differs after round trip", h, s)
				}
			}
		}
	})
}

// outOfRangeAssignments are well-formed assignment files whose ids lie
// outside a one-host, one-stream, operator-free system: a flow from host 7,
// a provide of stream 5 and a placement of operator 9. Each used to panic
// Validate with an index out of range.
var outOfRangeAssignments = []string{
	`{"version":1,"flows":[{"From":7,"To":0,"Stream":0}],"provides":[],"placements":[]}`,
	`{"version":1,"flows":[],"provides":[{"stream":5,"host":0}],"placements":[]}`,
	`{"version":1,"flows":[],"provides":[],"placements":[{"Host":0,"Op":9}]}`,
}

func TestValidateRejectsOutOfRangeIDs(t *testing.T) {
	sys := NewSystem([]Host{{ID: 0, CPU: 1, OutBW: 1, InBW: 1}}, 0)
	sys.PlaceBase(0, sys.AddStream(1, NoOperator, "s"))
	for _, body := range append([]string{
		`{"version":1,"flows":[{"From":0,"To":-1,"Stream":0}]}`,
		`{"version":1,"flows":[{"From":0,"To":0,"Stream":-2}]}`,
		`{"version":1,"provides":[{"stream":0,"host":1}]}`,
		`{"version":1,"placements":[{"Host":3,"Op":0}]}`,
	}, outOfRangeAssignments...) {
		a, err := ReadAssignment(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if a.CheckIDs(sys) == nil || a.Validate(sys) == nil {
			t.Errorf("%s: accepted against a one-host system", body)
		}
	}
}

// FuzzAssignmentJSON feeds arbitrary bytes through the assignment decoder
// and Validate against a fixed generated system: whatever ids, duplicates
// or cycles the bytes describe, Validate must return — never panic — and
// an assignment it accepts must re-encode to bytes that decode and encode
// to the same bytes again.
func FuzzAssignmentJSON(f *testing.F) {
	var sys System
	if err := json.Unmarshal(fuzzSeedSystems(f)[0], &sys); err != nil {
		f.Fatal(err)
	}
	for _, body := range outOfRangeAssignments {
		f.Add([]byte(body))
	}
	// A valid plan on the seed system (a⋈b at host 1, served from there),
	// then a relay loop with no real source.
	f.Add([]byte(`{"version":1,"provides":[{"stream":2,"host":1}],"flows":[],"placements":[{"Host":1,"Op":0}]}`))
	f.Add([]byte(`{"version":1,"provides":[],"flows":[{"From":0,"To":1,"Stream":1},{"From":1,"To":0,"Stream":1}],"placements":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var a Assignment
		if err := json.Unmarshal(data, &a); err != nil {
			return
		}
		if a.Validate(&sys) != nil {
			return
		}
		enc1, err := json.Marshal(&a)
		if err != nil {
			t.Fatalf("cannot re-encode accepted assignment: %v", err)
		}
		var b Assignment
		if err := json.Unmarshal(enc1, &b); err != nil {
			t.Fatalf("re-encoded assignment does not decode: %v\n%s", err, enc1)
		}
		if err := b.Validate(&sys); err != nil {
			t.Fatalf("round trip made a valid assignment invalid: %v", err)
		}
		enc2, err := json.Marshal(&b)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode not byte-identical after round trip:\n%s\nvs\n%s", enc1, enc2)
		}
	})
}
