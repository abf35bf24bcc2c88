package sqpr_test

import (
	"context"
	"testing"
	"time"

	"sqpr"
)

// TestFacadeEndToEnd exercises the public API surface exactly as the
// README quickstart does: build a system, generate a workload, plan it,
// validate the result, and deploy nothing (examples cover the engine).
func TestFacadeEndToEnd(t *testing.T) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts:   4,
		CPUPerHost: 6,
		OutBW:      80,
		InBW:       80,
		LinkCap:    40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 20
	wcfg.NumQueries = 8
	wcfg.Arities = []int{2, 3}
	w := sqpr.GenerateWorkload(sys, wcfg)

	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 150 * time.Millisecond
	p := sqpr.NewPlanner(sys, cfg)
	for _, q := range w.Queries {
		if _, err := p.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if p.AdmittedCount() == 0 {
		t.Fatal("facade planner admitted nothing")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("facade plan infeasible: %v", err)
	}
}

func TestQuickPlanHelper(t *testing.T) {
	sys := sqpr.NewSystem([]sqpr.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}, 50)
	a := sys.AddStream(5, sqpr.NoOperator, "a")
	b := sys.AddStream(5, sqpr.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]sqpr.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)

	n, err := sqpr.QuickPlan(context.Background(), sys, []sqpr.StreamID{op.Output}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("QuickPlan admitted %d, want 1", n)
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts: 3, CPUPerHost: 6, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 12
	wcfg.NumQueries = 6
	wcfg.Arities = []int{2}
	w := sqpr.GenerateWorkload(sys, wcfg)

	h := sqpr.NewHeuristicPlanner(sys, sqpr.PaperWeights())
	sodaSys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts: 3, CPUPerHost: 6, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	w2 := sqpr.GenerateWorkload(sodaSys, wcfg)
	s := sqpr.NewSODAPlanner(sodaSys)
	bnd := sqpr.NewBoundPlanner(sys)

	ctx := context.Background()
	for i := range w.Queries {
		h.Submit(ctx, w.Queries[i])
		s.Submit(ctx, w2.Queries[i])
		bnd.Submit(ctx, w.Queries[i])
	}
	if h.AdmittedCount() == 0 || s.AdmittedCount() == 0 || bnd.AdmittedCount() == 0 {
		t.Fatalf("baselines admitted %d/%d/%d", h.AdmittedCount(), s.AdmittedCount(), bnd.AdmittedCount())
	}
	if h.AdmittedCount() > bnd.AdmittedCount() {
		t.Fatal("heuristic exceeded the optimistic bound")
	}
}
