package core

import (
	"context"
	"errors"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

func TestReplanRestoresOnMidLoopError(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	// Splice an unknown stream between the two valid queries: its Submit
	// errors after qs[0] was re-planned but before qs[1] was, which used to
	// strand qs[1] removed and unadmitted.
	bogus := dsps.StreamID(len(sys.Streams) + 5)
	results, err := p.Replan(context.Background(), []dsps.StreamID{qs[0], bogus, qs[1]})
	if err == nil {
		t.Fatal("Replan with unknown stream returned no error")
	}
	var re *ReplanError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *ReplanError: %v", err, err)
	}
	if !errors.Is(err, plan.ErrUnknownStream) {
		t.Fatalf("ReplanError does not wrap the Submit cause: %v", err)
	}
	if len(re.Unrestored) != 0 {
		t.Fatalf("restorable queries reported unrestored: %v", re.Unrestored)
	}
	if len(results) != 1 {
		t.Fatalf("got %d partial results, want 1", len(results))
	}
	// Both original queries must still be admitted: qs[0] via its replan,
	// qs[1] via restoration.
	for _, q := range qs {
		if !p.Admitted(q) {
			t.Fatalf("query %d lost its admission across the failed replan", q)
		}
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("post-replan state infeasible: %v", err)
	}
}

func TestReplanCancelledCtxRestoresAll(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Replan(ctx, qs)
	if err == nil {
		t.Fatal("Replan under cancelled ctx returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	// Restoration runs under a background context, so every removed query
	// must be admitted again.
	for _, q := range qs {
		if !p.Admitted(q) {
			t.Fatalf("query %d not restored after cancelled replan", q)
		}
	}
}

func TestDriftedQueriesEdgeCases(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	// Find an operator actually supporting qs[0].
	var supportOp dsps.OperatorID = -1
	for _, pl := range p.Assignment().Ops {
		if sys.Operators[pl.Op].Output == qs[0] {
			supportOp = pl.Op
			break
		}
	}
	if supportOp < 0 {
		t.Fatal("no supporting operator found for query 0")
	}

	cases := []struct {
		name      string
		observed  map[dsps.OperatorID]float64
		threshold float64
		want      int // number of drifted queries
	}{
		{"no observations", nil, 0.2, 0},
		{"within threshold", map[dsps.OperatorID]float64{supportOp: sys.Operators[supportOp].Cost * 1.1}, 0.2, 0},
		{"beyond threshold", map[dsps.OperatorID]float64{supportOp: sys.Operators[supportOp].Cost * 2}, 0.2, 1},
		{"shrunk beyond threshold", map[dsps.OperatorID]float64{supportOp: sys.Operators[supportOp].Cost * 0.1}, 0.2, 1},
		{"operator id out of range high", map[dsps.OperatorID]float64{dsps.OperatorID(len(sys.Operators) + 3): 10}, 0.2, 0},
		{"operator id negative", map[dsps.OperatorID]float64{-1: 10}, 0.2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := p.DriftedQueries(tc.observed, tc.threshold)
			if len(got) != tc.want {
				t.Fatalf("DriftedQueries = %v, want %d queries", got, tc.want)
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
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, []dsps.StreamID{op.Output})

	// Zero observed cost on a zero-cost operator is not drift, and neither
	// is sub-epsilon monitoring noise.
	if got := p.DriftedQueries(map[dsps.OperatorID]float64{op.ID: 0}, 0.2); len(got) != 0 {
		t.Fatalf("zero observed on zero-cost operator flagged drift: %v", got)
	}
	if got := p.DriftedQueries(map[dsps.OperatorID]float64{op.ID: 1e-12}, 0.2); len(got) != 0 {
		t.Fatalf("noise-level observation on zero-cost operator flagged drift: %v", got)
	}
	// A real measurement on a zero-cost operator is drift.
	if got := p.DriftedQueries(map[dsps.OperatorID]float64{op.ID: 0.5}, 0.2); len(got) != 1 {
		t.Fatalf("real cost on zero-cost operator not flagged: %v", got)
	}
}
