package heuristic

import (
	"context"
	"testing"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// submitOK drives the unified Submit and reports admission.
func submitOK(p *Planner, q dsps.StreamID) bool {
	res, err := p.Submit(context.Background(), q)
	return err == nil && res.Admitted
}

func buildSmall(t *testing.T) (*dsps.System, dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 50)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)
	return sys, op.Output
}

func TestAdmitSimpleQuery(t *testing.T) {
	sys, q := buildSmall(t)
	p := New(sys, core.PaperWeights())
	if !submitOK(p, q) {
		t.Fatal("query rejected")
	}
	if !p.Admitted(q) || p.AdmittedCount() != 1 {
		t.Fatal("bookkeeping wrong")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("plan infeasible: %v", err)
	}
}

func TestDuplicateSubmission(t *testing.T) {
	sys, q := buildSmall(t)
	p := New(sys, core.PaperWeights())
	if !submitOK(p, q) || !submitOK(p, q) {
		t.Fatal("duplicate not accepted")
	}
	if p.AdmittedCount() != 1 {
		t.Fatalf("count %d", p.AdmittedCount())
	}
}

func TestRejectWhenNoCPU(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 1, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 50)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 5, "ab")
	sys.SetRequested(op.Output, true)
	p := New(sys, core.PaperWeights())
	if submitOK(p, op.Output) {
		t.Fatal("admitted despite insufficient CPU")
	}
}

func TestReusesExistingSubQuery(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 200, InBW: 200},
		{ID: 1, CPU: 10, OutBW: 200, InBW: 200},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	d := sys.AddStream(5, dsps.NoOperator, "d")
	for _, s := range []dsps.StreamID{a, b, c, d} {
		sys.PlaceBase(0, s)
	}
	shared := sys.AddOperator([]dsps.StreamID{a, b}, 2, 3, "ab")
	q1 := sys.AddOperator([]dsps.StreamID{shared.Output, c}, 1, 1, "abc")
	q2 := sys.AddOperator([]dsps.StreamID{shared.Output, d}, 1, 1, "abd")
	sys.SetRequested(q1.Output, true)
	sys.SetRequested(q2.Output, true)

	p := New(sys, core.PaperWeights())
	if !submitOK(p, q1.Output) || !submitOK(p, q2.Output) {
		t.Fatal("queries rejected")
	}
	count := 0
	for _, pl := range p.Assignment().Ops {
		if pl.Op == shared.ID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared op placed %d times", count)
	}
}

func TestAbstractPlanEnumeration(t *testing.T) {
	// A 3-way query with a full plan space must yield multiple abstract
	// plans (different join orders).
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 2, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = 3
	cfg.NumQueries = 1
	cfg.Arities = []int{3}
	w := workload.Generate(sys, cfg)
	p := New(sys, core.PaperWeights())
	plans := p.plansFor(w.Queries[0], maxPlans)
	if len(plans) < 3 {
		t.Fatalf("expected >=3 abstract plans for a 3-way join, got %d", len(plans))
	}
}

func TestWorkloadRun(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 4, CPUPerHost: 5, OutBW: 80, InBW: 80, LinkCap: 40})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = 20
	cfg.NumQueries = 15
	cfg.Arities = []int{2, 3}
	w := workload.Generate(sys, cfg)
	p := New(sys, core.PaperWeights())
	admitted := 0
	for _, q := range w.Queries {
		if submitOK(p, q) {
			admitted++
		}
		if err := p.Assignment().Validate(sys); err != nil {
			t.Fatalf("infeasible after submit: %v", err)
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if admitted != p.AdmittedCount() {
		// Duplicates report Submit=true without increasing the count.
		if admitted < p.AdmittedCount() {
			t.Fatalf("count mismatch: %d vs %d", admitted, p.AdmittedCount())
		}
	}
}

// TestSkipsHostShortOfMemory: host 0 has the roomier CPU and wins every
// score tie, but not the memory for the join; host 1 has. The placement
// probe must skip host 0 (the capacity rulebook counts memory), not pick it
// and have validation throw the whole candidate away.
func TestSkipsHostShortOfMemory(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 20, Mem: 1, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, Mem: 4, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 50)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	op.Mem = 2
	sys.SetRequested(op.Output, true)
	p := New(sys, core.PaperWeights())
	res, err := p.Submit(context.Background(), op.Output)
	if err != nil || !res.Admitted {
		t.Fatalf("Submit = %+v, %v; host 1 fits the query", res, err)
	}
	if !p.Assignment().HasOp(dsps.Placement{Host: 1, Op: op.ID}) {
		t.Fatalf("join not on host 1: %v", p.Assignment().Ops)
	}
}
