package dsps

import (
	"math/rand"
	"slices"
	"testing"

	"sqpr/internal/invariant"
)

func smallSystem() *System {
	hosts := []Host{
		{ID: 0, CPU: 10, OutBW: 50, InBW: 50},
		{ID: 1, CPU: 10, OutBW: 50, InBW: 50},
		{ID: 2, CPU: 10, OutBW: 50, InBW: 50},
	}
	return NewSystem(hosts, 30)
}

func TestAddStreamAndOperator(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	op := sys.AddOperator([]StreamID{a, b}, 2, 1.5, "a⋈b")
	if !sys.Streams[a].IsBase() || !sys.Streams[b].IsBase() {
		t.Fatal("base streams misclassified")
	}
	if sys.Streams[op.Output].IsBase() {
		t.Fatal("composite stream classified as base")
	}
	if got := sys.ProducersOf(op.Output); len(got) != 1 || got[0] != op.ID {
		t.Fatalf("producers: %v", got)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddProducerForRegistersAlternative(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	c := sys.AddStream(5, NoOperator, "c")
	op1 := sys.AddOperator([]StreamID{a, b}, 2, 1, "ab")
	op2 := sys.AddProducerFor(op1.Output, []StreamID{b, c}, 1, "bc-alt")
	got := sys.ProducersOf(op1.Output)
	if len(got) != 2 || got[0] != op1.ID || got[1] != op2.ID {
		t.Fatalf("producers: %v", got)
	}
}

func TestPlaceBaseIdempotent(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	sys.PlaceBase(1, a)
	sys.PlaceBase(1, a)
	if got := sys.BaseHosts(a); len(got) != 1 || got[0] != 1 {
		t.Fatalf("base hosts: %v", got)
	}
	if !sys.IsBaseAt(1, a) || sys.IsBaseAt(0, a) {
		t.Fatal("IsBaseAt wrong")
	}
}

func TestTotals(t *testing.T) {
	sys := smallSystem()
	if sys.TotalCPU() != 30 {
		t.Fatalf("total cpu %v", sys.TotalCPU())
	}
	// 3 hosts, 6 directed pairs at 30 each.
	if sys.TotalLinkCap() != 180 {
		t.Fatalf("total link cap %v", sys.TotalLinkCap())
	}
}

func TestValidateCatchesBadOperator(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	op := sys.AddOperator([]StreamID{a}, 1, 1, "id")
	// Corrupt: operator consuming its own output.
	sys.Operators[op.ID].Inputs = []StreamID{op.Output}
	if err := sys.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestAssignmentValidateHappyPath(t *testing.T) {
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
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMissingInput(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]StreamID{a, b}, 2, 1, "ab")
	sys.SetRequested(op.Output, true)

	asg := NewAssignment()
	asg.AddOp(Placement{Host: 0, Op: op.ID}) // b never brought to host 0
	if err := asg.Validate(sys); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestValidateRejectsUnrequestedProvide(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	sys.PlaceBase(0, a)
	asg := NewAssignment()
	asg.SetProvide(a, 0)
	if err := asg.Validate(sys); err == nil {
		t.Fatal("expected unrequested-provide error")
	}
}

func TestValidateRejectsCPUOverflow(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]StreamID{a, b}, 1, 100, "heavy") // cost 100 > 10
	sys.SetRequested(op.Output, true)
	asg := NewAssignment()
	asg.AddOp(Placement{Host: 0, Op: op.ID})
	asg.SetProvide(op.Output, 0)
	if err := asg.Validate(sys); err == nil {
		t.Fatal("expected CPU overflow error")
	}
}

func TestValidateRejectsLinkOverflow(t *testing.T) {
	sys := smallSystem()
	// Link capacity 30; push 4 streams of rate 10 over the same link.
	var streams []StreamID
	for i := 0; i < 4; i++ {
		s := sys.AddStream(10, NoOperator, "s")
		sys.PlaceBase(0, s)
		streams = append(streams, s)
	}
	asg := NewAssignment()
	for _, s := range streams {
		asg.AddFlow(Flow{From: 0, To: 1, Stream: s})
	}
	if err := asg.Validate(sys); err == nil {
		t.Fatal("expected link overflow error")
	}
}

func TestValidateRejectsAcausalCycle(t *testing.T) {
	// The self-sustaining feedback loop of §III: two hosts exchange a
	// stream neither can originate. Availability constraints alone admit
	// it; the causality check must reject it.
	sys := smallSystem()
	s := sys.AddStream(5, NoOperator, "phantom")
	sys.PlaceBase(2, s) // base exists only at host 2, which is not involved
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 0, To: 1, Stream: s})
	asg.AddFlow(Flow{From: 1, To: 0, Stream: s})
	if err := asg.Validate(sys); err == nil {
		t.Fatal("expected acausality error")
	}
}

func TestValidateAcceptsRelayChain(t *testing.T) {
	// Relays are legal: base at 0, relayed 0→1→2 where an operator uses it.
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(2, b)
	op := sys.AddOperator([]StreamID{a, b}, 1, 1, "ab")
	sys.SetRequested(op.Output, true)
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 0, To: 1, Stream: a})
	asg.AddFlow(Flow{From: 1, To: 2, Stream: a})
	asg.AddOp(Placement{Host: 2, Op: op.ID})
	asg.SetProvide(op.Output, 2)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestComputeUsage(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(7, NoOperator, "a")
	b := sys.AddStream(3, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]StreamID{a, b}, 2, 4, "ab")
	sys.SetRequested(op.Output, true)
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 0, To: 1, Stream: a})
	asg.AddFlow(Flow{From: 0, To: 1, Stream: b})
	asg.AddOp(Placement{Host: 1, Op: op.ID})
	asg.SetProvide(op.Output, 1)

	u := asg.ComputeUsage(sys)
	if u.CPU[1] != 4 {
		t.Fatalf("cpu[1] = %v", u.CPU[1])
	}
	if u.Out[0] != 10 { // 7 + 3 flowing out
		t.Fatalf("out[0] = %v", u.Out[0])
	}
	if u.In[1] != 10 {
		t.Fatalf("in[1] = %v", u.In[1])
	}
	if u.Out[1] != 2 { // delivery of result stream rate 2
		t.Fatalf("out[1] = %v", u.Out[1])
	}
	if u.Network != 10 {
		t.Fatalf("network = %v", u.Network)
	}
	if u.MaxCPU() != 4 || u.TotalCPU() != 4 {
		t.Fatalf("max/total cpu %v/%v", u.MaxCPU(), u.TotalCPU())
	}
}

func TestCloneIndependence(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	sys.PlaceBase(0, a)
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 0, To: 1, Stream: a})
	cl := asg.Clone()
	cl.AddFlow(Flow{From: 0, To: 2, Stream: a})
	if len(asg.Flows) != 1 {
		t.Fatal("clone mutated original")
	}
}

func TestSortedAccessorsDeterministic(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	sys.PlaceBase(0, a)
	asg := NewAssignment()
	asg.AddFlow(Flow{From: 2, To: 1, Stream: a})
	asg.AddFlow(Flow{From: 0, To: 1, Stream: a})
	if f := asg.Flows; len(f) != 2 || f[0].From != 0 || f[1].From != 2 {
		t.Fatalf("sorted flows: %v", f)
	}
}

func TestAvailableViaProducer(t *testing.T) {
	sys := smallSystem()
	a := sys.AddStream(5, NoOperator, "a")
	b := sys.AddStream(5, NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]StreamID{a, b}, 2, 1, "ab")
	asg := NewAssignment()
	asg.AddOp(Placement{Host: 0, Op: op.ID})
	if !asg.Available(sys, 0, op.Output) {
		t.Fatal("output should be available at producing host")
	}
	if asg.Available(sys, 1, op.Output) {
		t.Fatal("output should not be available elsewhere")
	}
}

// TestMutatorsAssertOrder: under sqprdebug every mutator re-checks that the
// slices are sorted and free of repeats, so a write that went around the
// methods panics at the next one.
func TestMutatorsAssertOrder(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("assertions are compiled in under -tags sqprdebug only")
	}
	for name, mutate := range map[string]func(a *Assignment){
		"SetProvide": func(a *Assignment) { a.SetProvide(0, 0) },
		"AddFlow":    func(a *Assignment) { a.AddFlow(Flow{From: 0, To: 2, Stream: 1}) },
		"DeleteOp":   func(a *Assignment) { a.DeleteOp(Placement{Host: 1, Op: 1}) },
		"DeleteOpsFunc": func(a *Assignment) {
			a.DeleteOpsFunc(func(Placement) bool { return false })
		},
	} {
		a := NewAssignment()
		a.Flows = []Flow{{From: 1, To: 0, Stream: 4}, {From: 0, To: 1, Stream: 4}}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an unsorted assignment did not panic", name)
				}
			}()
			mutate(a)
		}()
	}
}

// TestIndexListsMatchTables builds a system one piece at a time, as a
// generator does, and holds every stream's producer, consumer and base-host
// lists to a recount from the tables, and every operator's inputs to what
// was passed: lists cut from shared blocks must never overlap, however far
// they grow (one stream here feeds thousands of operators) and wherever a
// block ends.
func TestIndexListsMatchTables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := smallSystem()
	var inputs [][]StreamID
	for i := 0; i < 3000; i++ {
		if len(sys.Streams) < 2 || rng.Intn(3) == 0 {
			s := sys.AddStream(1, NoOperator, "")
			for h := range sys.Hosts {
				if rng.Intn(2) == 0 {
					sys.PlaceBase(HostID(h), s)
				}
			}
			continue
		}
		n := len(sys.Streams)
		in := []StreamID{0, StreamID(rng.Intn(n)), StreamID(rng.Intn(n))}[:1+rng.Intn(3)]
		out := StreamID(rng.Intn(n))
		if slices.Contains(in, out) {
			continue
		}
		inputs = append(inputs, slices.Clone(in))
		op := sys.AddProducerFor(out, in, 1, "")
		in[0] = -1 // the system keeps its own copy
		if op.ID != OperatorID(len(inputs)-1) {
			t.Fatalf("operator %d, want %d", op.ID, len(inputs)-1)
		}
	}
	producers := make([][]OperatorID, len(sys.Streams))
	consumers := make([][]OperatorID, len(sys.Streams))
	for _, op := range sys.Operators {
		if !slices.Equal(op.Inputs, inputs[op.ID]) {
			t.Fatalf("operator %d inputs %v, want %v", op.ID, op.Inputs, inputs[op.ID])
		}
		producers[op.Output] = append(producers[op.Output], op.ID)
		for i, in := range op.Inputs {
			if !slices.Contains(op.Inputs[:i], in) {
				consumers[in] = append(consumers[in], op.ID)
			}
		}
	}
	if len(consumers[0]) < 1000 {
		t.Fatalf("stream 0 feeds %d operators, want a list longer than a block", len(consumers[0]))
	}
	for s := range sys.Streams {
		id := StreamID(s)
		if !slices.Equal(sys.ProducersOf(id), producers[s]) {
			t.Fatalf("stream %d producers %v, want %v", s, sys.ProducersOf(id), producers[s])
		}
		if !slices.Equal(sys.ConsumersOf(id), consumers[s]) {
			t.Fatalf("stream %d consumers %v, want %v", s, sys.ConsumersOf(id), consumers[s])
		}
		var hosts []HostID
		for h := range sys.Hosts {
			if sys.IsBaseAt(HostID(h), id) {
				hosts = append(hosts, HostID(h))
			}
		}
		if !slices.Equal(sys.BaseHosts(id), hosts) {
			t.Fatalf("stream %d base hosts %v, want %v", s, sys.BaseHosts(id), hosts)
		}
	}
}
