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
