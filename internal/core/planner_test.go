package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// twoHostSystem builds a minimal system: two hosts, two base streams on
// host 0, and one join operator producing a requested composite stream.
func twoHostSystem(t *testing.T) (*dsps.System, dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	bs := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, bs)
	op := sys.AddOperator([]dsps.StreamID{a, bs}, 1, 2, "a⋈b")
	sys.SetRequested(op.Output, true)
	if err := sys.Validate(); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	return sys, op.Output
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SolveTimeout = 2 * time.Second
	return cfg
}

func TestSubmitSingleQuery(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	res, err := p.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("query not admitted: %+v", res)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("resulting plan infeasible: %v", err)
	}
	if p.AdmittedCount() != 1 {
		t.Fatalf("admitted count %d", p.AdmittedCount())
	}
}

func TestSubmitDuplicateQuery(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AlreadyAdmitted || !res.Admitted {
		t.Fatalf("duplicate submission not recognised: %+v", res)
	}
}

func TestSubmitUnrequestedStreamErrors(t *testing.T) {
	sys, _ := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	base := dsps.StreamID(0)
	if _, err := p.Submit(context.Background(), base); err == nil {
		t.Fatal("expected error for unrequested stream")
	}
}

func TestRejectionWhenNoCPU(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 0.5, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "a⋈b") // cost 2 > 0.5
	sys.SetRequested(op.Output, true)

	p := NewPlanner(sys, testConfig())
	res, err := p.Submit(context.Background(), op.Output)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("query admitted despite insufficient CPU")
	}
	if p.AdmittedCount() != 0 {
		t.Fatalf("admitted count %d", p.AdmittedCount())
	}
}

func TestRejectionWhenNoBandwidthForDelivery(t *testing.T) {
	// Result stream rate 50 exceeds the host out-bandwidth 10.
	hosts := []dsps.Host{{ID: 0, CPU: 10, OutBW: 10, InBW: 10}}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 50, 1, "a⋈b")
	sys.SetRequested(op.Output, true)

	p := NewPlanner(sys, testConfig())
	res, err := p.Submit(context.Background(), op.Output)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("query admitted despite insufficient delivery bandwidth")
	}
}

func TestReuseSharedSubQuery(t *testing.T) {
	// Two queries sharing a sub-join: the shared operator must be placed
	// once, not twice.
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 1000, InBW: 1000},
		{ID: 1, CPU: 10, OutBW: 1000, InBW: 1000},
	}
	sys := dsps.NewSystem(hosts, 1000)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	d := sys.AddStream(5, dsps.NoOperator, "d")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(1, c)
	sys.PlaceBase(1, d)
	shared := sys.AddOperator([]dsps.StreamID{a, b}, 2, 3, "a⋈b")
	q1 := sys.AddOperator([]dsps.StreamID{shared.Output, c}, 1, 1, "ab⋈c")
	q2 := sys.AddOperator([]dsps.StreamID{shared.Output, d}, 1, 1, "ab⋈d")
	sys.SetRequested(q1.Output, true)
	sys.SetRequested(q2.Output, true)

	p := NewPlanner(sys, testConfig())
	r1, err := p.Submit(context.Background(), q1.Output)
	if err != nil || !r1.Admitted {
		t.Fatalf("q1: %+v err=%v", r1, err)
	}
	r2, err := p.Submit(context.Background(), q2.Output)
	if err != nil || !r2.Admitted {
		t.Fatalf("q2: %+v err=%v", r2, err)
	}
	// The shared operator runs exactly once system-wide.
	count := 0
	for _, pl := range p.Assignment().Ops {
		if pl.Op == shared.ID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared operator placed %d times, want 1", count)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("plan infeasible: %v", err)
	}
}

func TestKeepAdmittedAcrossSubmissions(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: 4, CPUPerHost: 3, OutBW: 200, InBW: 200, LinkCap: 200,
	})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = 20
	cfg.NumQueries = 12
	cfg.Arities = []int{2, 3}
	w := workload.Generate(sys, cfg)

	p := NewPlanner(sys, testConfig())
	admittedSoFar := make(map[dsps.StreamID]bool)
	for _, q := range w.Queries {
		if _, err := p.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		if p.Admitted(q) {
			admittedSoFar[q] = true
		}
		// Every previously admitted query must remain admitted (IV.9).
		for prev := range admittedSoFar {
			if !p.Admitted(prev) {
				t.Fatalf("query %d dropped after later submission", prev)
			}
			if _, ok := p.Assignment().Provider(prev); !ok {
				t.Fatalf("query %d lost its provider", prev)
			}
		}
		if err := p.Assignment().Validate(sys); err != nil {
			t.Fatalf("infeasible state after submit: %v", err)
		}
	}
	if len(admittedSoFar) == 0 {
		t.Fatal("no queries admitted at all")
	}
}

func TestRemoveGarbageCollects(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(q); err != nil {
		t.Fatal(err)
	}
	if p.AdmittedCount() != 0 {
		t.Fatalf("admitted count %d after removal", p.AdmittedCount())
	}
	if a := p.Assignment(); len(a.Ops)+len(a.Flows) != 0 {
		t.Fatalf("operators %v and flows %v not garbage-collected", a.Ops, a.Flows)
	}
}

func TestRemoveKeepsSharedSupport(t *testing.T) {
	// With two queries sharing a sub-join, removing one must keep the
	// shared operator alive for the other.
	hosts := []dsps.Host{{ID: 0, CPU: 10, OutBW: 1000, InBW: 1000}}
	sys := dsps.NewSystem(hosts, 1000)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(0, c)
	shared := sys.AddOperator([]dsps.StreamID{a, b}, 2, 3, "a⋈b")
	q1 := sys.AddOperator([]dsps.StreamID{shared.Output, c}, 1, 1, "ab⋈c")
	sys.SetRequested(shared.Output, true) // query 2 is the shared join itself
	sys.SetRequested(q1.Output, true)

	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q1.Output); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), shared.Output); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(shared.Output); err != nil {
		t.Fatal(err)
	}
	if !p.Admitted(q1.Output) {
		t.Fatal("remaining query lost")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("state infeasible after removal: %v", err)
	}
	found := false
	for _, pl := range p.Assignment().Ops {
		if pl.Op == shared.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("shared operator was garbage-collected while still needed")
	}
}

func TestRepairCostDriftKeepsQuery(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	op := sys.Streams[q].Producer
	// 9 still fits a 10-CPU host: the query is re-planned and kept, and the
	// new cost is in the system and in the exported state.
	rr, err := p.Repair(context.Background(), []plan.Event{plan.CostDrift(op, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rr.Kept, []dsps.StreamID{q}) || !p.Admitted(q) {
		t.Fatalf("repair %+v lost the query", rr)
	}
	if got := p.ExportState().Costs; sys.Operators[op].Cost != 9 || !slices.Equal(got, []plan.OpCost{{Op: op, Cost: 9}}) {
		t.Fatalf("cost %v, exported %v; want 9", sys.Operators[op].Cost, got)
	}
	// 11 fits no host: the query is dropped, not left on an overloaded one.
	rr, err = p.Repair(context.Background(), []plan.Event{plan.CostDrift(op, 11)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rr.Dropped, []dsps.StreamID{q}) || p.Admitted(q) {
		t.Fatalf("repair %+v kept a query no host can run", rr)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSubmission(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 1000, InBW: 1000},
		{ID: 1, CPU: 10, OutBW: 1000, InBW: 1000},
	}
	sys := dsps.NewSystem(hosts, 1000)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(1, c)
	op1 := sys.AddOperator([]dsps.StreamID{a, b}, 1, 1, "a⋈b")
	op2 := sys.AddOperator([]dsps.StreamID{b, c}, 1, 1, "b⋈c")
	sys.SetRequested(op1.Output, true)
	sys.SetRequested(op2.Output, true)

	p := NewPlanner(sys, testConfig())
	res, err := p.Submit(context.Background(), op1.Output, plan.WithBatch(op2.Output))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || p.AdmittedCount() != 2 {
		t.Fatalf("batch admission failed: %+v count=%d", res, p.AdmittedCount())
	}
}

func TestDriftedQueries(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	drifted := func(events ...plan.Event) []dsps.StreamID {
		return plan.DriftedQueries(sys, p.Assignment(), plan.DriftedOps(sys, events))
	}
	// Only a cost event names an operator.
	if got := drifted(plan.DriftQuery(q), plan.FailHost(1)); len(got) != 0 {
		t.Fatalf("unexpected drift: %v", got)
	}
	// The query running the operator drifts, whatever the new cost.
	if got := drifted(plan.CostDrift(sys.Streams[q].Producer, 0)); !slices.Equal(got, []dsps.StreamID{q}) {
		t.Fatalf("drift detection failed: %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, testConfig())
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(context.Background(), q); err != nil { // duplicate
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Submissions != 2 {
		t.Fatalf("submissions %d", st.Submissions)
	}
	if st.Rejections != 0 {
		t.Fatalf("rejections %d", st.Rejections)
	}
	if st.TotalPlanTime <= 0 {
		t.Fatal("no plan time recorded")
	}
}

func TestZeroValueConfigGetsDefaults(t *testing.T) {
	sys, q := twoHostSystem(t)
	p := NewPlanner(sys, Config{})
	if p.cfg.MaxCandidateHosts <= 0 || p.cfg.SolveTimeout <= 0 {
		t.Fatal("defaults not applied")
	}
	if _, err := p.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}

// TestRefactorsPerSolveBudget fills the 15-host daemon substrate (the
// benchmark's s15: population seed 7, the daemon's planner limits) with its
// first 80 queries under a timeout no call comes near, and bounds the LU
// factorizations and simplex iterations each solve costs. Lazy-row
// activation borders the factors instead of discarding them, which took
// the refactorization ratio from 36 to 11; presolve run to its fixpoint
// hands the LP fewer free binaries, which took the iteration ratio from 348
// to 255; the dual simplex's cold start from the slack basis with shifted
// costs holds them at 249.2 iterations and 13.6 refactorizations, where
// starting each negative-cost column at its upper bound costs 294.5 and
// 17.8. Both bounds are counts, so a change that goes back
// to refactorizing per activation wave, to stopping presolve early, or to
// a costlier cold start fails here on any machine.
//
// Most of the walk's models are seed-decided rejections, which build no
// model; each is replayed through the full path on a planner cloned just
// before it, with the search those calls ran before the seed decided them
// (fullBudgetOptions), so the gate still covers the same solves.
func TestRefactorsPerSolveBudget(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 80,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Minute
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	p := NewPlanner(sys, cfg)
	var replayed Stats
	for _, q := range w.Queries {
		clone := NewPlanner(sys, cfg)
		if err := clone.ImportState(p.ExportState()); err != nil {
			t.Fatal(err)
		}
		res, err := p.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
		if res.SeedClosed && !res.Admitted {
			replayed.Record(replayFullPath(t, clone, q, fullBudgetOptions))
		}
	}
	// The average is over the solves that ran or were replayed: submissions
	// the greedy seed closed with an admission cost no factorization and
	// would dilute the gate to nothing.
	st := p.Stats()
	solves := st.Submissions - st.SeedClosed + replayed.Submissions
	refactors := st.Factor.Refactors + replayed.Factor.Refactors
	rowEtas := st.Factor.RowEtas + replayed.Factor.RowEtas
	lpIters := st.TotalLPIters + replayed.TotalLPIters
	if solves <= 0 || rowEtas == 0 {
		t.Fatalf("nothing measured: %d submissions, %d seed-closed, %d replayed, %d row etas", st.Submissions, st.SeedClosed, replayed.Submissions, rowEtas)
	}
	const budget, itersBudget = 14, 260
	per := float64(refactors) / float64(solves)
	iters := float64(lpIters) / float64(solves)
	t.Logf("%d refactorizations, %d row etas, %d LP iterations over %d solves (%d submissions, %d seed-closed, %d of them replayed): %.1f refactorizations and %.1f iterations per solve",
		refactors, rowEtas, lpIters, solves, st.Submissions, st.SeedClosed, replayed.Submissions, per, iters)
	if per > budget {
		t.Fatalf("%.1f refactorizations per solve, budget %d", per, budget)
	}
	if iters > itersBudget {
		t.Fatalf("%.1f LP iterations per solve, budget %d", iters, itersBudget)
	}
}
