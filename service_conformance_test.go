// Service-conformance suite: every planner in the repository can be wrapped
// in a plan.Service and driven by many goroutines at once. The schedule the
// dispatcher applied is its serialisation certificate — after a concurrent
// run of Submit/Remove/Repair, replaying the calls the planner received,
// serially and in order, on a fresh planner must reproduce exactly the same
// admitted set, proving that the dispatcher's queueing and locking never
// corrupt planner state.
// CI runs this file under -race (the race-service step).
package sqpr_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"sqpr"
	"sqpr/internal/plan"
)

// scheduledCall is one planner call the dispatcher made: a submit with its
// primary query and WithBatch companions, a remove, or a repair.
type scheduledCall struct {
	kind    plan.TraceKind
	queries []sqpr.StreamID
	events  []sqpr.Event
	err     error
}

// schedulePlanner records the calls it receives, in order, and forwards
// them to the planner it wraps.
type schedulePlanner struct {
	sqpr.QueryPlanner
	mu    sync.Mutex
	calls []scheduledCall
}

func (p *schedulePlanner) record(c scheduledCall) {
	p.mu.Lock()
	p.calls = append(p.calls, c)
	p.mu.Unlock()
}

func (p *schedulePlanner) Submit(ctx context.Context, q sqpr.StreamID, opts ...sqpr.SubmitOption) (sqpr.Result, error) {
	res, err := p.QueryPlanner.Submit(ctx, q, opts...)
	cfg := plan.Apply(opts)
	p.record(scheduledCall{kind: plan.TraceSubmit, queries: cfg.Queries(q), err: err})
	return res, err
}

func (p *schedulePlanner) Remove(q sqpr.StreamID) error {
	err := p.QueryPlanner.Remove(q)
	p.record(scheduledCall{kind: plan.TraceRemove, queries: []sqpr.StreamID{q}, err: err})
	return err
}

func (p *schedulePlanner) Repair(ctx context.Context, events []sqpr.Event, opts ...sqpr.SubmitOption) (sqpr.RepairResult, error) {
	rr, err := p.QueryPlanner.Repair(ctx, events, opts...)
	p.record(scheduledCall{kind: plan.TraceRepair, events: events, err: err})
	return rr, err
}

// serviceEnv builds the conformance system and workload at a slightly larger
// scale than conformanceEnv, so rejections occur.
func serviceEnv() (*sqpr.System, []sqpr.StreamID) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts: 4, CPUPerHost: 8, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 16
	wcfg.NumQueries = 12
	wcfg.Arities = []int{2, 3}
	wcfg.Seed = 23
	w := sqpr.GenerateWorkload(sys, wcfg)
	return sys, w.Queries
}

// serviceCases mirrors conformanceCases with a generous solver budget, so
// every solve terminates on its deterministic node/gap budget rather than a
// wall-clock deadline — the precondition for run-vs-replay equality.
func serviceCases() []conformanceCase {
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 5 * time.Second
	return []conformanceCase{
		{"core", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewPlanner(sys, cfg) }},
		{"heuristic", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewHeuristicPlanner(sys, sqpr.PaperWeights()) }},
		{"soda", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewSODAPlanner(sys) }},
		{"bound", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewBoundPlanner(sys) }},
		{"hier", func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewHierarchicalPlanner(sys, cfg, 2) }},
	}
}

// TestServiceConformance drives every planner through a plan.Service from
// many goroutines — concurrent submits, removes and host-churn repairs —
// then replays the calls the planner received serially on a fresh planner
// and asserts the admitted sets match exactly.
func TestServiceConformance(t *testing.T) {
	for _, tc := range serviceCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, queries := serviceEnv()

			rec := &schedulePlanner{QueryPlanner: tc.make(sys)}
			svc := sqpr.NewService(rec, sqpr.ServiceConfig{})

			ctx := context.Background()
			var wg sync.WaitGroup

			// Concurrent submitters: every query submitted once, spread
			// over the pool. Submitter 0 sends its share as one explicit
			// batch, so the schedule carries a multi-query submit to replay.
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if w == 0 {
						if _, err := svc.Submit(ctx, queries[0], sqpr.WithBatch(queries[8])); err != nil {
							t.Errorf("Submit(%d, batch %d): %v", queries[0], queries[8], err)
						}
						return
					}
					for i := w; i < len(queries); i += 8 {
						if _, err := svc.Submit(ctx, queries[i]); err != nil {
							t.Errorf("Submit(%d): %v", queries[i], err)
						}
					}
				}(w)
			}
			// Concurrent removals: racing a Remove against the submits is
			// legal; ErrNotAdmitted simply means it lost the race.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range queries[:4] {
					svc.Remove(q)
				}
			}()
			// Concurrent churn: fail and recover a host mid-traffic.
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.Repair(ctx, []sqpr.Event{sqpr.FailHost(1)}); err != nil {
					t.Errorf("Repair(fail): %v", err)
				}
				if _, err := svc.Repair(ctx, []sqpr.Event{sqpr.RecoverHost(1)}); err != nil {
					t.Errorf("Repair(recover): %v", err)
				}
			}()
			wg.Wait()
			svc.Close()

			// Replay the recorded schedule serially on a fresh planner over
			// a fresh (identically seeded) system.
			replaySys, _ := serviceEnv()
			replay := tc.make(replaySys)
			batches := 0
			for i, c := range rec.calls {
				switch c.kind {
				case plan.TraceSubmit:
					if c.err != nil {
						continue // state unchanged on submit errors
					}
					var err error
					if len(c.queries) > 1 {
						batches++
						_, err = replay.Submit(ctx, c.queries[0], sqpr.WithBatch(c.queries[1:]...))
					} else {
						_, err = replay.Submit(ctx, c.queries[0])
					}
					if err != nil {
						t.Fatalf("replay[%d] submit %v: %v", i, c.queries, err)
					}
				case plan.TraceRemove:
					if c.err != nil {
						continue // failed removes did not change state
					}
					if err := replay.Remove(c.queries[0]); err != nil {
						t.Fatalf("replay[%d] remove %d: %v", i, c.queries[0], err)
					}
				case plan.TraceRepair:
					// Repairs commit host-state transitions even on error,
					// so they always replay.
					if _, err := replay.Repair(ctx, c.events); err != nil && c.err == nil {
						t.Fatalf("replay[%d] repair: %v", i, err)
					}
				}
			}

			if batches != 1 {
				t.Fatalf("schedule replayed %d multi-query submits, want submitter 0's explicit batch", batches)
			}

			// The concurrent run and its serial replay must agree exactly.
			if got, want := svc.AdmittedCount(), replay.AdmittedCount(); got != want {
				t.Fatalf("admitted count: service %d, serial replay %d", got, want)
			}
			for _, q := range queries {
				if svc.Admitted(q) != replay.Admitted(q) {
					t.Fatalf("query %d: service admitted=%v, serial replay=%v",
						q, svc.Admitted(q), replay.Admitted(q))
				}
			}
			// And the service's final state must still be feasible.
			if err := svc.Assignment().Validate(sys); err != nil {
				t.Fatalf("service left infeasible state: %v", err)
			}
		})
	}
}

// TestServiceConcurrentSubmittersMatchSerialAdmissions checks that 64
// concurrent submitters pushing the workload through a service admit exactly
// the query set a serial caller admits in workload order: at this scale
// admission does not depend on the order the submitters happen to arrive in.
func TestServiceConcurrentSubmittersMatchSerialAdmissions(t *testing.T) {
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 5 * time.Second

	// Serial baseline.
	serialSys, queries := serviceEnv()
	serial := sqpr.NewPlanner(serialSys, cfg)
	ctx := context.Background()
	for _, q := range queries {
		if _, err := serial.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent service run.
	svcSys, _ := serviceEnv()
	svc := sqpr.NewService(sqpr.NewPlanner(svcSys, cfg), sqpr.ServiceConfig{})
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 64 {
				if _, err := svc.Submit(ctx, queries[i]); err != nil {
					t.Errorf("Submit(%d): %v", queries[i], err)
				}
			}
		}(w)
	}
	wg.Wait()
	svc.Close()

	for _, q := range queries {
		if svc.Admitted(q) != serial.Admitted(q) {
			t.Fatalf("query %d: service admitted=%v, serial=%v", q, svc.Admitted(q), serial.Admitted(q))
		}
	}
}
