package core

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// BenchmarkLPLargeModel solves a batch-union model in the size class that
// forced the dense engine into tractability splits: the whole workload is
// planned as ONE joint batch with the closure cap lifted, so the builder
// emits a single MILP over the union of every query's sharing closure (~9k
// variables) instead of carving it into sub-batches. On the dense tableau
// this model was a multi-gigabyte allocation before the first pivot; the
// sparse revised simplex prices it at its nonzero count.
//
// Capacity is ample at this scale, so the greedy seed serves the whole batch
// and Submit closes the call on it without a model. The LP is what this
// benchmark times, so it sits where the solver is called: one planner, one
// builder, then solve — build, the seed as incumbent, milp.Solve, decode —
// with Submit's own options, and the result committed as Submit would.
//
// The serialized one-at-a-time baseline (default closure cap) runs once
// outside the timer as the admitted-set reference: admission is
// order-independent here, so the joint solve must admit exactly the same
// query set (set-equal). Metrics feed BENCH_5.json via scripts/bench.sh,
// which fails when the sets differ, the model is smaller than the size class
// claims, or memory per solve grows back toward dense territory.
func BenchmarkLPLargeModel(b *testing.B) {
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: 12, CPUPerHost: 40, OutBW: 600, InBW: 600, LinkCap: 300, // ample: every query fits under any order
	})
	queries := workload.Generate(sys, workload.Config{
		NumBaseStreams: 48, BaseRate: 10, Zipf: 0.8, Arities: []int{2, 3, 4}, NumQueries: 10,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 1,
	}).Queries
	const timeout = 3 * time.Second
	ctx := context.Background()

	// Serialized reference: default per-call closure cap, one query at a
	// time, workload order.
	cfg := DefaultConfig()
	cfg.SolveTimeout = timeout
	serial := NewPlanner(sys, cfg)
	for _, q := range queries {
		if _, err := serial.Submit(ctx, q); err != nil {
			b.Fatal(err)
		}
	}

	cfg.MaxFreeStreams = 1 << 20 // no closure cap: the union stays whole

	var res Result
	var joint *Planner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joint = NewPlanner(sys, cfg)
		joint.beginCall(plan.SubmitConfig{})
		deadline := time.Now().Add(timeout)
		bld := joint.newBuilder(queries, false)
		res = Result{}
		opts := fullSolveOptions(joint, bld)
		opts.Deadline = deadline
		next, err := joint.solve(ctx, bld, bld.seed(deadline), opts, &res)
		if err != nil || next == nil {
			b.Fatalf("joint solve: %v (%+v)", err, res)
		}
		joint.Commit(next, queries...)
	}
	b.StopTimer()
	if res.LPIters == 0 {
		b.Fatal("the joint solve ran no LP")
	}
	setEqual := 1.0
	for _, q := range queries {
		if joint.Admitted(q) != serial.Admitted(q) {
			setEqual = 0
		}
	}
	b.ReportMetric(float64(res.ModelVars), "model-vars")
	b.ReportMetric(float64(joint.AdmittedCount()), "joint-admitted")
	b.ReportMetric(float64(serial.AdmittedCount()), "serial-admitted")
	b.ReportMetric(setEqual, "set-equal")
}
