// Interface-conformance suite: every planner in the repository implements
// sqpr.QueryPlanner, so one table-driven test drives all five over the same
// generated workload and asserts the shared behavioural invariants — no
// panic on unknown or duplicate IDs, Remove-then-resubmit round-trips, and
// prompt ctx cancellation that leaves planner state unchanged.
package sqpr_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sqpr"
)

// conformanceCase names one QueryPlanner implementation.
type conformanceCase struct {
	name string
	make func(sys *sqpr.System) sqpr.QueryPlanner
}

func conformanceCases() []conformanceCase {
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 150 * time.Millisecond
	return []conformanceCase{
		{"core", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewPlanner(sys, cfg) }},
		{"heuristic", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewHeuristicPlanner(sys, sqpr.PaperWeights()) }},
		{"soda", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewSODAPlanner(sys, sqpr.PaperWeights()) }},
		{"bound", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewBoundPlanner(sys) }},
		{"hier", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewHierarchicalPlanner(sys, cfg, 2) }},
	}
}

// conformanceEnv builds a fresh system and workload; every planner gets an
// identical copy (the workload generator is deterministic under one seed).
func conformanceEnv() (*sqpr.System, []sqpr.StreamID) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts: 4, CPUPerHost: 8, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 16
	wcfg.NumQueries = 8
	wcfg.Arities = []int{2, 3}
	wcfg.Seed = 17
	w := sqpr.GenerateWorkload(sys, wcfg)
	return sys, w.Queries
}

// stateSnapshot captures the observable planner state for corruption checks.
type stateSnapshot struct {
	admitted, provides, ops, flows int
}

func snapshot(p sqpr.QueryPlanner) stateSnapshot {
	a := p.Assignment()
	return stateSnapshot{
		admitted: p.AdmittedCount(),
		provides: len(a.Provides),
		ops:      len(a.Ops),
		flows:    len(a.Flows),
	}
}

func TestQueryPlannerConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sys, queries := conformanceEnv()
			p := tc.make(sys)

			// Workload: every submission must return without error.
			for _, q := range queries {
				res, err := p.Submit(ctx, q)
				if err != nil {
					t.Fatalf("Submit(%d): %v", q, err)
				}
				if res.Admitted && res.Reason != sqpr.ReasonNone {
					t.Fatalf("admitted result carries rejection reason %v", res.Reason)
				}
				if !res.Admitted && res.Reason == sqpr.ReasonNone {
					t.Fatalf("rejected result carries no reason: %+v", res)
				}
			}
			if p.AdmittedCount() == 0 {
				t.Fatal("planner admitted nothing on the conformance workload")
			}
			// Any planner that reports placements must report feasible ones.
			if len(p.Assignment().Provides) > 0 {
				if err := p.Assignment().Validate(sys); err != nil {
					t.Fatalf("assignment infeasible: %v", err)
				}
			}

			// Unknown stream IDs: typed error, no panic.
			for _, bogus := range []sqpr.StreamID{-1, sqpr.StreamID(len(sys.Streams) + 7)} {
				if _, err := p.Submit(ctx, bogus); !errors.Is(err, sqpr.ErrUnknownStream) {
					t.Fatalf("Submit(%d) err = %v, want ErrUnknownStream", bogus, err)
				}
				if err := p.Remove(bogus); !errors.Is(err, sqpr.ErrUnknownStream) {
					t.Fatalf("Remove(%d) err = %v, want ErrUnknownStream", bogus, err)
				}
			}

			// Duplicate submission: recognised, state unchanged.
			var admitted sqpr.StreamID = -1
			for _, q := range queries {
				if p.Admitted(q) {
					admitted = q
					break
				}
			}
			if admitted < 0 {
				t.Fatal("no admitted query to probe")
			}
			before := snapshot(p)
			res, err := p.Submit(ctx, admitted)
			if err != nil {
				t.Fatalf("duplicate Submit: %v", err)
			}
			if !res.AlreadyAdmitted || !res.Admitted {
				t.Fatalf("duplicate not recognised: %+v", res)
			}
			if got := snapshot(p); got != before {
				t.Fatalf("duplicate submission changed state: %+v -> %+v", before, got)
			}

			// Remove then resubmit round-trips.
			if err := p.Remove(admitted); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if p.Admitted(admitted) {
				t.Fatal("query still admitted after Remove")
			}
			if err := p.Remove(admitted); !errors.Is(err, sqpr.ErrNotAdmitted) {
				t.Fatalf("second Remove err = %v, want ErrNotAdmitted", err)
			}
			res, err = p.Submit(ctx, admitted)
			if err != nil {
				t.Fatalf("resubmit after Remove: %v", err)
			}
			if !res.Admitted {
				t.Fatalf("resubmit after Remove rejected: %+v", res)
			}
			if len(p.Assignment().Provides) > 0 {
				if err := p.Assignment().Validate(sys); err != nil {
					t.Fatalf("assignment infeasible after remove/resubmit: %v", err)
				}
			}

			// Batch with a bogus member: typed error, nothing admitted.
			before = snapshot(p)
			if _, err := p.Submit(ctx, admitted, sqpr.WithBatch(-5)); !errors.Is(err, sqpr.ErrUnknownStream) {
				t.Fatalf("batch with bogus member err = %v, want ErrUnknownStream", err)
			}
			if got := snapshot(p); got != before {
				t.Fatalf("failed batch changed state: %+v -> %+v", before, got)
			}

			// Cancelled ctx: prompt error, assignment uncorrupted.
			if err := p.Remove(admitted); err != nil {
				t.Fatalf("Remove before cancellation probe: %v", err)
			}
			before = snapshot(p)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.Submit(cancelled, admitted); !errors.Is(err, context.Canceled) {
				t.Fatalf("Submit with cancelled ctx err = %v, want context.Canceled", err)
			}
			if got := snapshot(p); got != before {
				t.Fatalf("cancelled submission corrupted state: %+v -> %+v", before, got)
			}

			// Stats were accumulated across the calls above.
			if st := p.Stats(); st.Submissions == 0 {
				t.Fatal("no submissions recorded in Stats")
			}
		})
	}
}

// TestQueryPlannerConformanceParallel runs every implementation on its own
// goroutine-private system, catching data races through shared package
// state (run with -race in CI).
func TestQueryPlannerConformanceParallel(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, len(conformanceCases()))
	for _, tc := range conformanceCases() {
		wg.Add(1)
		go func(tc conformanceCase) {
			defer wg.Done()
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			ctx := context.Background()
			for _, q := range queries {
				if _, err := p.Submit(ctx, q); err != nil {
					errs <- fmt.Errorf("%s: Submit(%d): %w", tc.name, q, err)
					return
				}
			}
			if p.AdmittedCount() == 0 {
				errs <- fmt.Errorf("%s: admitted nothing", tc.name)
			}
		}(tc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubmitOptionsAcrossPlanners verifies that the functional options are
// accepted uniformly: a timeout option and a host restriction must not
// error on any implementation.
func TestSubmitOptionsAcrossPlanners(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			ctx := context.Background()
			if _, err := p.Submit(ctx, queries[0],
				sqpr.WithTimeout(100*time.Millisecond),
				sqpr.WithValidation(true)); err != nil {
				t.Fatalf("options submit: %v", err)
			}
			hosts := make([]sqpr.HostID, sys.NumHosts())
			for i := range hosts {
				hosts[i] = sqpr.HostID(i)
			}
			if _, err := p.Submit(ctx, queries[1],
				sqpr.WithCandidateHosts(hosts...)); err != nil {
				t.Fatalf("host-restricted submit: %v", err)
			}
			if _, err := p.Submit(ctx, queries[2],
				sqpr.WithBatch(queries[3])); err != nil {
				t.Fatalf("batch submit: %v", err)
			}
		})
	}
}

// checkLedgerAgrees asserts that the three views of "q is served" agree for
// every query: Admitted(q), membership in ExportState().Admitted and — for
// the planners that place (all but the aggregate bound) — a provide in the
// assignment.
func checkLedgerAgrees(t *testing.T, step string, p sqpr.QueryPlanner, places bool, queries []sqpr.StreamID) {
	t.Helper()
	exported := p.(sqpr.StatePorter).ExportState().Admitted
	if len(exported) != p.AdmittedCount() {
		t.Fatalf("%s: ExportState lists %d admitted queries, AdmittedCount = %d", step, len(exported), p.AdmittedCount())
	}
	for _, q := range queries {
		_, provided := p.Assignment().Provider(q)
		if in := slices.Contains(exported, q); in != p.Admitted(q) || (places && provided != in) {
			t.Fatalf("%s: query %d: Admitted = %v, in ExportState = %v, provided = %v", step, q, p.Admitted(q), in, provided)
		}
	}
}

// TestAdmissionViewsAgreeAtEveryStep walks every planner through the steps
// of the conformance script — submits, a duplicate, a remove, a resubmit, a
// batch refused for a bogus member, a cancelled submit, a joint batch — and
// checks after each one that no view of the admitted set has drifted from
// the others.
func TestAdmissionViewsAgreeAtEveryStep(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			step := func(name string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkLedgerAgrees(t, name, p, tc.name != "bound", queries)
			}
			var served sqpr.StreamID = -1
			for _, q := range queries[:6] {
				_, err := p.Submit(ctx, q)
				step("submit", err)
				if served < 0 && p.Admitted(q) {
					served = q
				}
			}
			if served < 0 {
				t.Fatal("planner admitted nothing on the conformance workload")
			}
			_, err := p.Submit(ctx, served)
			step("duplicate submit", err)
			step("remove", p.Remove(served))
			_, err = p.Submit(ctx, served)
			step("resubmit", err)
			if _, err = p.Submit(ctx, served, sqpr.WithBatch(-5)); err == nil {
				t.Fatal("batch with a bogus member did not fail")
			}
			step("batch with bogus member", nil)
			step("remove again", p.Remove(served))
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err = p.Submit(cancelled, served); err == nil {
				t.Fatal("cancelled submit did not fail")
			}
			step("cancelled submit", nil)
			_, err = p.Submit(ctx, served, sqpr.WithBatch(queries[6], queries[7]))
			step("batch", err)
			_, err = p.Repair(ctx, []sqpr.Event{sqpr.FailHost(0)})
			step("repair", err)
		})
	}
}

// cancelledOnce is a context that reports cancellation as soon as when()
// holds. Planners poll Err between the members of a sequential batch, so
// tying it to "the first member is admitted" cancels exactly mid-batch.
type cancelledOnce struct {
	context.Context
	when func() bool
}

func (c cancelledOnce) Err() error {
	if c.when() {
		return context.Canceled
	}
	return nil
}

// TestBatchErrorMidwayLeavesStateUnchanged cancels a two-member batch once
// its first member is admitted. The sequential planners (heuristic, soda)
// must return the error; any planner that does must be back at the
// byte-identical pre-call state, and must then be able to place the same
// queries again — for soda that needs the template placements of the
// rolled-back member forgotten, not glued onto.
func TestBatchErrorMidwayLeavesStateUnchanged(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			porter := p.(sqpr.StatePorter)
			// Some load first, so there is a state to restore.
			for _, q := range queries[:3] {
				if _, err := p.Submit(context.Background(), q); err != nil {
					t.Fatalf("Submit(%d): %v", q, err)
				}
			}
			// The first two remaining queries the planner can serve alone.
			var pair []sqpr.StreamID
			for _, q := range queries[3:] {
				if res, err := p.Submit(context.Background(), q); err == nil && res.Admitted && !res.AlreadyAdmitted {
					if err := p.Remove(q); err != nil {
						t.Fatalf("Remove(%d): %v", q, err)
					}
					if pair = append(pair, q); len(pair) == 2 {
						break
					}
				}
			}
			if len(pair) < 2 {
				t.Fatal("workload has no two fresh queries this planner admits")
			}
			before := porter.ExportState()

			ctx := cancelledOnce{context.Background(), func() bool { return p.Admitted(pair[0]) }}
			_, err := p.Submit(ctx, pair[0], sqpr.WithBatch(pair[1]))
			if sequential := tc.name == "heuristic" || tc.name == "soda"; sequential && !errors.Is(err, context.Canceled) {
				t.Fatalf("batch cancelled before its second member: err = %v, want context.Canceled", err)
			}
			if err == nil {
				return // one joint decision (core, hier) or no poll mid-batch (bound)
			}
			if after := porter.ExportState(); !after.Equal(before) {
				t.Fatalf("failed batch changed the state:\nbefore %+v\nafter  %+v", before, after)
			}
			checkLedgerAgrees(t, "failed batch", p, tc.name != "bound", queries)
			for _, q := range pair {
				res, err := p.Submit(context.Background(), q)
				if err != nil || !res.Admitted {
					t.Fatalf("resubmit of %d after the rollback: %+v, %v", q, res, err)
				}
			}
			if err := p.Assignment().Validate(sys); err != nil {
				t.Fatalf("assignment infeasible after rollback and resubmit: %v", err)
			}
		})
	}
}

// TestSubmitIsDeterministic plans the sqpr-plan demonstration workload on
// two fresh planners, with a timeout no call comes near: the same inputs
// must compile to the same model, so every call explores the same nodes in
// the same LP iterations and both planners end in byte-identical states.
func TestSubmitIsDeterministic(t *testing.T) {
	run := func() ([][2]int, sqpr.PlannerState) {
		sys := sqpr.BuildSystem(sqpr.SystemConfig{NumHosts: 8, CPUPerHost: 8, OutBW: 80, InBW: 80, LinkCap: 40})
		wcfg := sqpr.DefaultWorkloadConfig()
		wcfg.NumBaseStreams, wcfg.NumQueries, wcfg.Seed = 30, 30, 42
		w := sqpr.GenerateWorkload(sys, wcfg)
		cfg := sqpr.DefaultPlannerConfig()
		cfg.SolveTimeout = time.Minute
		p := sqpr.NewPlanner(sys, cfg)
		var effort [][2]int
		for _, q := range w.Queries {
			res, err := p.Submit(context.Background(), q)
			if err != nil {
				t.Fatalf("Submit(%d): %v", q, err)
			}
			effort = append(effort, [2]int{res.Nodes, res.LPIters})
		}
		return effort, p.ExportState()
	}
	effortA, stateA := run()
	effortB, stateB := run()
	if !slices.Equal(effortA, effortB) {
		t.Fatalf("per-call (nodes, LP iterations) differ between two identical runs:\n%v\n%v", effortA, effortB)
	}
	if !stateA.Equal(stateB) {
		t.Fatal("two identical runs ended in different states")
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
func TestRefactorsPerSolveBudget(t *testing.T) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
	w := sqpr.GenerateWorkload(sys, sqpr.WorkloadConfig{
		NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 80,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = time.Minute
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	p := sqpr.NewPlanner(sys, cfg)
	for _, q := range w.Queries {
		if _, err := p.Submit(context.Background(), q); err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
	}
	// The average is over the solves that ran: submissions the greedy seed
	// closed cost no factorization and would dilute the gate to nothing.
	st := p.Stats()
	solves := st.Submissions - st.SeedClosed
	if solves <= 0 || st.Factor.RowEtas == 0 {
		t.Fatalf("nothing measured: %d submissions, %d seed-closed, %d row etas", st.Submissions, st.SeedClosed, st.Factor.RowEtas)
	}
	const budget, itersBudget = 14, 260
	per := float64(st.Factor.Refactors) / float64(solves)
	iters := float64(st.TotalLPIters) / float64(solves)
	t.Logf("%d refactorizations, %d row etas, %d LP iterations over %d solves (%d submissions, %d seed-closed): %.1f refactorizations and %.1f iterations per solve",
		st.Factor.Refactors, st.Factor.RowEtas, st.TotalLPIters, solves, st.Submissions, st.SeedClosed, per, iters)
	if per > budget {
		t.Fatalf("%.1f refactorizations per solve, budget %d", per, budget)
	}
	if iters > itersBudget {
		t.Fatalf("%.1f LP iterations per solve, budget %d", iters, itersBudget)
	}
}

// TestPopulationWalksDoNotStall submits every query of four S15 populations
// (the benchmark's 15-host substrate and the daemon's planner limits, at
// population seeds 7–10) one at a time, in order, under a budget no call
// should come near, and bounds the simplex iterations of every call. A root
// LP that the dual simplex stalls on runs into the deadline instead: seed
// 9's query 349 once ran 1.14 M iterations there. The bound is a count, so
// the test fails the same way on any machine; the number of calls that
// admit pins the decisions of the whole walk.
func TestPopulationWalksDoNotStall(t *testing.T) {
	const maxIters = 50_000
	want := map[int64]int{7: 101, 8: 109, 9: 103, 10: 111}
	for seed := int64(7); seed <= 10; seed++ {
		sys := sqpr.BuildSystem(sqpr.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
		w := sqpr.GenerateWorkload(sys, sqpr.WorkloadConfig{
			NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 150,
			SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: seed,
		})
		cfg := sqpr.DefaultPlannerConfig()
		cfg.SolveTimeout = 10 * time.Second
		cfg.MaxCandidateHosts = 8
		cfg.MaxFreeStreams = 30
		p := sqpr.NewPlanner(sys, cfg)
		total, admitted := 0, 0
		for step, q := range w.Queries {
			res, err := p.Submit(context.Background(), q)
			if err != nil {
				t.Fatalf("seed %d step %d: Submit(%d): %v", seed, step, q, err)
			}
			if res.LPIters > maxIters {
				t.Fatalf("seed %d step %d: Submit(%d) ran %d LP iterations, bound %d", seed, step, q, res.LPIters, maxIters)
			}
			total += res.LPIters
			if res.Admitted {
				admitted++
			}
		}
		t.Logf("seed %d: %d of %d calls admitted, %d LP iterations", seed, admitted, len(w.Queries), total)
		if admitted != want[seed] {
			t.Errorf("seed %d: %d of %d calls admitted, want %d", seed, admitted, len(w.Queries), want[seed])
		}
	}
}
