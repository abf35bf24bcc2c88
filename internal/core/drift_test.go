package core_test

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/sim"
)

// admitted builds a planner over sys and admits every query in qs.
func admitted(t *testing.T, sys *dsps.System, qs ...dsps.StreamID) *core.Planner {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = 2 * time.Second
	p := core.NewPlanner(sys, cfg)
	for _, q := range qs {
		res, err := p.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
		if !res.Admitted {
			t.Fatalf("query %d not admitted: %+v", q, res)
		}
	}
	return p
}

// driftedQueries runs observations through the monitor's drift threshold
// (sim.DetectDrift) and returns the admitted queries of p whose plans the
// resulting cost events invalidate.
func driftedQueries(sys *dsps.System, p *core.Planner, obs []sim.Observation, threshold float64) []dsps.StreamID {
	events := sim.DetectDrift(sys, obs, threshold)
	return plan.DriftedQueries(sys, p.Assignment(), plan.DriftedOps(sys, events))
}

func TestDriftedQueriesEdgeCases(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 200, InBW: 200},
		{ID: 1, CPU: 10, OutBW: 200, InBW: 200},
		{ID: 2, CPU: 10, OutBW: 200, InBW: 200},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(0, c)
	q1 := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "a⋈b").Output
	q2 := sys.AddOperator([]dsps.StreamID{b, c}, 1, 2, "b⋈c").Output
	sys.SetRequested(q1, true)
	sys.SetRequested(q2, true)
	p := admitted(t, sys, q1, q2)

	// Find an operator actually supporting q1.
	var supportOp dsps.OperatorID = -1
	for _, pl := range p.Assignment().Ops {
		if sys.Operators[pl.Op].Output == q1 {
			supportOp = pl.Op
			break
		}
	}
	if supportOp < 0 {
		t.Fatal("no supporting operator found for query q1")
	}
	cost := sys.Operators[supportOp].Cost

	cases := []struct {
		name      string
		observed  []sim.Observation
		threshold float64
		want      int // number of drifted queries
	}{
		{"no observations", nil, 0.2, 0},
		{"within threshold", []sim.Observation{{Op: supportOp, Cost: cost * 1.1}}, 0.2, 0},
		{"beyond threshold", []sim.Observation{{Op: supportOp, Cost: cost * 2}}, 0.2, 1},
		{"shrunk beyond threshold", []sim.Observation{{Op: supportOp, Cost: cost * 0.1}}, 0.2, 1},
		{"operator id out of range high", []sim.Observation{{Op: dsps.OperatorID(len(sys.Operators) + 3), Cost: 10}}, 0.2, 0},
		{"operator id negative", []sim.Observation{{Op: -1, Cost: 10}}, 0.2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := driftedQueries(sys, p, tc.observed, tc.threshold)
			if len(got) != tc.want {
				t.Fatalf("drifted queries = %v, want %d queries", got, tc.want)
			}
			if tc.want == 1 && got[0] != q1 {
				t.Fatalf("drifted queries = %v, want [%d]", got, q1)
			}
		})
	}
}

func TestDriftedQueriesZeroCostOperator(t *testing.T) {
	// A dedicated system with a zero-cost operator in the support.
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 0, "free-join") // zero cost
	sys.SetRequested(op.Output, true)
	p := admitted(t, sys, op.Output)

	// Zero observed cost on a zero-cost operator is not drift, and neither
	// is sub-epsilon monitoring noise.
	if got := driftedQueries(sys, p, []sim.Observation{{Op: op.ID, Cost: 0}}, 0.2); len(got) != 0 {
		t.Fatalf("zero observed on zero-cost operator flagged drift: %v", got)
	}
	if got := driftedQueries(sys, p, []sim.Observation{{Op: op.ID, Cost: 1e-12}}, 0.2); len(got) != 0 {
		t.Fatalf("noise-level observation on zero-cost operator flagged drift: %v", got)
	}
	// A real measurement on a zero-cost operator is drift.
	if got := driftedQueries(sys, p, []sim.Observation{{Op: op.ID, Cost: 0.5}}, 0.2); len(got) != 1 {
		t.Fatalf("real cost on zero-cost operator not flagged: %v", got)
	}
}
