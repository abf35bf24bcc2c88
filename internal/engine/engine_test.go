package engine

import (
	"reflect"
	"testing"

	"sqpr/internal/dsps"
)

// joinSetup builds two hosts, two base streams on host 0, and a join whose
// result is provided from host 1 (so a flow is involved).
func joinSetup(t *testing.T) (*dsps.System, *dsps.Assignment, dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(20, dsps.NoOperator, "a")
	b := sys.AddStream(20, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 5, 1, "ab")
	sys.SetRequested(op.Output, true)

	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: op.ID})
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: op.Output})
	asg.SetProvide(op.Output, 1)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}
	return sys, asg, op.Output
}

func mustRun(t *testing.T, sys *dsps.System, a *dsps.Assignment, seconds float64) Report {
	t.Helper()
	rep, err := Run(sys, a, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestDeployAndDeliver runs joinSetup for one simulated second. Both
// inputs emit 40 tuples, a before b at each instant, with keys 1..31, 0,
// 1, ... Every b tuple finds its key in a's window (a's tuple of the same
// instant); the k-th a tuple finds it in b's only from k = 33 on, when b's
// tuple k-32 carries the same key. So the join emits 40 + 8 results, each
// sent once along the flow and delivered once on host 1.
func TestDeployAndDeliver(t *testing.T) {
	sys, asg, out := joinSetup(t)
	rep := mustRun(t, sys, asg, 1)
	const results = 48
	rate := sys.Streams[out].Rate
	if got := rep.Results[out]; got != results {
		t.Fatalf("Results[out] = %d, want %d", got, results)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("Results = %v, want only the provided stream", rep.Results)
	}
	if rep.CPUWork[0] != 80 || rep.ComputeSamples != 80 {
		t.Fatalf("CPUWork[0] = %v over %d samples, want 80 over 80 (one per input tuple)", rep.CPUWork[0], rep.ComputeSamples)
	}
	if rep.Sent[0] != results*rate || rep.Received[1] != results*rate || rep.Delivered[1] != results*rate {
		t.Fatalf("sent %v received %v delivered %v, want %v each", rep.Sent[0], rep.Received[1], rep.Delivered[1], results*rate)
	}
}

// TestUnaryOperatorDelivers runs one source feeding one single-input
// operator on one host for 1.5 simulated seconds: the source emits
// 50 × 2 × 1.5 = 150 tuples, the operator passes each through, and each
// is delivered on the operator's output stream.
func TestUnaryOperatorDelivers(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 10, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	src := sys.AddStream(50, dsps.NoOperator, "src")
	sys.PlaceBase(0, src)
	op := sys.AddOperator([]dsps.StreamID{src}, 25, 0.5, "project")
	sys.SetRequested(op.Output, true)

	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: op.ID})
	asg.SetProvide(op.Output, 0)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, sys, asg, 1.5)
	want := Report{
		CPUWork:        []float64{150 * 0.5},
		Sent:           []float64{0},
		Received:       []float64{0},
		Delivered:      []float64{150 * 25},
		ComputeSamples: 150,
		Results:        map[dsps.StreamID]int64{op.Output: 150},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("report %+v, want %+v", rep, want)
	}
}

func TestDeployRejectsInfeasiblePlan(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	// Corrupt the plan: flow of a stream the sender does not possess.
	phantom := sys.AddStream(5, dsps.NoOperator, "phantom")
	sys.PlaceBase(1, phantom)
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: phantom})
	if _, err := Run(sys, asg, 1); err == nil {
		t.Fatal("expected deployment of infeasible plan to fail")
	}
}

// TestRelayChainDelivers relays a base stream 0→1→2 for 1.5 simulated
// seconds: each of its 150 tuples crosses both hops and is delivered on
// host 2, and no host computes.
func TestRelayChainDelivers(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 2, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(50, dsps.NoOperator, "a")
	sys.PlaceBase(0, a)
	sys.SetRequested(a, true)
	asg := dsps.NewAssignment()
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: a})
	asg.AddFlow(dsps.Flow{From: 1, To: 2, Stream: a})
	asg.SetProvide(a, 2)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, sys, asg, 1.5)
	const vol = 150 * 50
	want := Report{
		CPUWork:   []float64{0, 0, 0},
		Sent:      []float64{vol, vol, 0},
		Received:  []float64{0, vol, vol},
		Delivered: []float64{0, 0, vol},
		Results:   map[dsps.StreamID]int64{a: 150},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("report %+v, want %+v", rep, want)
	}
}

func TestWindowEviction(t *testing.T) {
	w := newWindow(2)
	w.add(1)
	w.add(2)
	w.add(3) // evicts key 1
	if got := w.matching(1); got != 0 {
		t.Fatalf("evicted key still matches %d tuples", got)
	}
	if got := w.matching(3); got != 1 {
		t.Fatalf("fresh key matches %d tuples, want 1", got)
	}
}

func TestWindowDuplicateKeys(t *testing.T) {
	w := newWindow(8)
	for i := 0; i < 4; i++ {
		w.add(7)
	}
	if got := w.matching(7); got != 4 {
		t.Fatalf("expected 4 matches, got %d", got)
	}
	for i := int64(0); i < 6; i++ {
		w.add(i) // evicts two of the four
	}
	if got := w.matching(7); got != 2 {
		t.Fatalf("expected 2 matches after evicting two, got %d", got)
	}
}

// TestMonitorSnapshotIsCopy pins that a Report shares no storage with the
// run that made it or with any other run.
func TestMonitorSnapshotIsCopy(t *testing.T) {
	sys, asg, out := joinSetup(t)
	first := mustRun(t, sys, asg, 1)
	first.CPUWork[0] = 999
	first.Results[out] = 0
	if second := mustRun(t, sys, asg, 1); second.CPUWork[0] != 80 || second.Results[out] != 48 {
		t.Fatalf("second run reads CPUWork[0] = %v, Results = %d: reports alias", second.CPUWork[0], second.Results[out])
	}
}

// TestMonitorDeliverySeparateFromEgress pins the delivery/egress
// accounting: client deliveries land in Delivered only, so total Sent
// balances against total Received.
func TestMonitorDeliverySeparateFromEgress(t *testing.T) {
	sys, asg, out := joinSetup(t)
	rep := mustRun(t, sys, asg, 1)
	if rep.Sent[1] != 0 {
		t.Fatalf("Sent[1] = %v, want 0: delivery leaked into egress", rep.Sent[1])
	}
	if want := float64(rep.Results[out]) * sys.Streams[out].Rate; rep.Delivered[1] != want || rep.Delivered[0] != 0 {
		t.Fatalf("Delivered = %v, want [0 %v]", rep.Delivered, want)
	}
	var sent, recv float64
	for h := range rep.Sent {
		sent += rep.Sent[h]
		recv += rep.Received[h]
	}
	if sent != recv {
		t.Fatalf("egress %v does not balance ingress %v", sent, recv)
	}
}

// TestMonitorComputeSamples chains two unary operators across two hosts:
// each of the source's 20 tuples invokes both, so the run folds 40
// samples into CPUWork at each operator's cost.
func TestMonitorComputeSamples(t *testing.T) {
	sys := dsps.NewSystem([]dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}, 100)
	src := sys.AddStream(10, dsps.NoOperator, "src")
	sys.PlaceBase(0, src)
	op1 := sys.AddOperator([]dsps.StreamID{src}, 5, 2.5, "first")
	op2 := sys.AddOperator([]dsps.StreamID{op1.Output}, 5, 1.5, "second")
	sys.SetRequested(op2.Output, true)
	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: op1.ID})
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: op1.Output})
	asg.AddOp(dsps.Placement{Host: 1, Op: op2.ID})
	asg.SetProvide(op2.Output, 1)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	rep := mustRun(t, sys, asg, 1)
	if rep.ComputeSamples != 40 {
		t.Fatalf("ComputeSamples = %d, want 40", rep.ComputeSamples)
	}
	if rep.CPUWork[0] != 50 || rep.CPUWork[1] != 30 {
		t.Fatalf("CPUWork = %v, want [50 30]", rep.CPUWork)
	}
}
