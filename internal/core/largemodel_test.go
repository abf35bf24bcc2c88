package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// TestLargeModelJointSolve solves a batch-union model in the size class that
// forced the dense engine into tractability splits: the whole workload is
// planned as ONE joint batch with the closure cap lifted, so the builder
// emits a single MILP over the union of every query's sharing closure (~9k
// variables) instead of carving it into sub-batches. On the dense tableau
// this model was a multi-gigabyte allocation before the first pivot; the
// sparse revised simplex prices it at its nonzero count.
//
// Submit no longer solves a model of this size at all: at or above
// largeModelVars the greedy seed decides the call. The LP is what this test
// is about, so it runs where the solver is called: one planner, one builder,
// then solve — build, the seed as incumbent, milp.Solve, decode — with
// Submit's search options, and the result committed as Submit would.
//
// The serialized one-at-a-time run (default closure cap) is the admitted-set
// reference: admission is order-independent here, so the joint solve must
// admit exactly the same query set. Budgets are a minute, far beyond either
// run, so node counts alone end every search. The test fails when the sets
// differ, the model is smaller than the size class claims, or the joint call
// allocates more than 128 MiB (about 30 MB on the sparse engine).
func TestLargeModelJointSolve(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: 12, CPUPerHost: 40, OutBW: 600, InBW: 600, LinkCap: 300, // ample: every query fits under any order
	})
	queries := workload.Generate(sys, workload.Config{
		NumBaseStreams: 48, BaseRate: 10, Zipf: 0.8, Arities: []int{2, 3, 4}, NumQueries: 10,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 1,
	}).Queries
	const timeout = time.Minute
	ctx := context.Background()

	// Serialized reference: default per-call closure cap, one query at a
	// time, workload order.
	cfg := DefaultConfig()
	cfg.SolveTimeout = timeout
	serial := NewPlanner(sys, cfg)
	for _, q := range queries {
		if _, err := serial.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	cfg.MaxFreeStreams = 1 << 20 // no closure cap: the union stays whole
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	joint := NewPlanner(sys, cfg)
	joint.beginCall(plan.SubmitConfig{})
	deadline := time.Now().Add(timeout)
	bld := joint.newBuilder(queries, false)
	var res Result
	opts := fullSolveOptions(joint, bld)
	opts.Deadline = deadline
	next, err := joint.solve(ctx, bld, bld.seed(ctx), opts, &res)
	if err != nil || next == nil {
		t.Fatalf("joint solve: %v (%+v)", err, res)
	}
	joint.Commit(next, queries...)
	runtime.ReadMemStats(&after)
	t.Logf("%d variables, %d nodes, %d LP iterations, %d of %d admitted, %d B allocated",
		res.ModelVars, res.Nodes, res.LPIters, joint.AdmittedCount(), len(queries), after.TotalAlloc-before.TotalAlloc)

	if res.LPIters == 0 {
		t.Fatal("the joint solve ran no LP")
	}
	if res.ModelVars < 8000 {
		t.Fatalf("joint model has %d variables, want >= 8000 (the batch union is no longer whole)", res.ModelVars)
	}
	for _, q := range queries {
		if joint.Admitted(q) != serial.Admitted(q) {
			t.Fatalf("query %d: joint admitted %v, serialized %v (joint %d, serialized %d admitted)",
				q, joint.Admitted(q), serial.Admitted(q), joint.AdmittedCount(), serial.AdmittedCount())
		}
	}
	const maxAlloc = 128 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > maxAlloc {
		t.Fatalf("joint call allocated %d B, want <= %d", got, maxAlloc)
	}
}
