// Seeded churn conformance: across 50 random workloads, the core planner's
// delta-MILP Repair is compared against (a) the remove-and-resubmit
// fallback on an identical planner and (b) a cold full re-solve of the
// whole workload on the degraded system. Repair must keep at least as many
// admissions as the cold re-solve preserves, must never migrate more
// operators than remove-and-resubmit moves, and must migrate strictly
// fewer on at least half the seeds — the measurable payoff of pinning and
// the migration-cost objective. A second suite drives Repair through every
// planner of the repository and asserts the shared interface invariants.
// CI runs both under -race.
package sqpr_test

import (
	"context"
	"testing"
	"time"

	"sqpr"
	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/sim"
)

// churnConformanceScale is deliberately modest: solves stay node-capped
// (not wall-clock-capped), so admission decisions are deterministic even
// under -race slowdowns.
func churnConformanceScale(seed int64) sim.Scale {
	sc := sim.DefaultScale()
	sc.Hosts = 8
	sc.BaseStreams = 40
	sc.Queries = 22
	sc.Timeout = 2 * time.Second
	sc.MaxCandHost = 6
	sc.Seed = seed
	return sc
}

func newChurnCorePlanner(sys *dsps.System, sc sim.Scale) *core.Planner {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	return core.NewPlanner(sys, cfg)
}

func submitWorkload(t *testing.T, p plan.QueryPlanner, queries []dsps.StreamID) {
	t.Helper()
	ctx := context.Background()
	for _, q := range queries {
		if _, err := p.Submit(ctx, q); err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
	}
}

// busiestPlannedHost returns the host carrying the most operator
// placements (ties to the lowest ID), the most disruptive single failure.
func busiestPlannedHost(a *dsps.Assignment) dsps.HostID {
	counts := map[dsps.HostID]int{}
	for _, pl := range a.Ops {
		counts[pl.Host]++
	}
	best, bestN := dsps.HostID(0), -1
	for h, n := range counts {
		if n > bestN || (n == bestN && h < best) {
			best, bestN = h, n
		}
	}
	return best
}

func assertNoDownHostUsage(t *testing.T, sys *dsps.System, a *dsps.Assignment, seed int) {
	t.Helper()
	for _, pl := range a.Ops {
		if !sys.HostUsable(pl.Host) {
			t.Fatalf("seed %d: operator %d still on down host %d", seed, pl.Op, pl.Host)
		}
	}
	for _, f := range a.Flows {
		if !sys.HostUsable(f.From) || !sys.HostUsable(f.To) {
			t.Fatalf("seed %d: flow %+v touches a down host", seed, f)
		}
	}
	for _, p := range a.Provides {
		if !sys.HostUsable(p.Host) {
			t.Fatalf("seed %d: stream %d still provided by down host %d", seed, p.Stream, p.Host)
		}
	}
}

func TestChurnRepairConformance(t *testing.T) {
	const seeds = 50
	ctx := context.Background()
	strictlyFewer := 0
	for seed := 1; seed <= seeds; seed++ {
		sc := churnConformanceScale(int64(seed))

		// Planner A: delta-MILP repair.
		envA := sim.BuildEnv(sc)
		pA := newChurnCorePlanner(envA.Sys, sc)
		submitWorkload(t, pA, envA.Queries)
		initialAdmitted := pA.AdmittedCount()
		fail := busiestPlannedHost(pA.Assignment())
		events := []plan.Event{plan.FailHost(fail)}
		rrA, err := pA.Repair(ctx, events)
		if err != nil {
			t.Fatalf("seed %d: Repair: %v", seed, err)
		}
		if err := pA.Assignment().Validate(envA.Sys); err != nil {
			t.Fatalf("seed %d: repaired state infeasible: %v", seed, err)
		}
		assertNoDownHostUsage(t, envA.Sys, pA.Assignment(), seed)
		if len(rrA.Kept)+len(rrA.Dropped) != len(rrA.Affected) {
			t.Fatalf("seed %d: kept %d + dropped %d != affected %d",
				seed, len(rrA.Kept), len(rrA.Dropped), len(rrA.Affected))
		}
		keptA := pA.AdmittedCount()

		// Planner B: remove-and-resubmit fallback, identical start state.
		envB := sim.BuildEnv(sc)
		pB := newChurnCorePlanner(envB.Sys, sc)
		submitWorkload(t, pB, envB.Queries)
		if pB.AdmittedCount() != initialAdmitted {
			t.Fatalf("seed %d: nondeterministic baseline: %d vs %d admitted",
				seed, pB.AdmittedCount(), initialAdmitted)
		}
		rrB, err := plan.RepairByResubmit(ctx, envB.Sys, pB, events)
		if err != nil {
			t.Fatalf("seed %d: RepairByResubmit: %v", seed, err)
		}
		if err := pB.Assignment().Validate(envB.Sys); err != nil {
			t.Fatalf("seed %d: resubmit state infeasible: %v", seed, err)
		}

		// Planner C: cold full re-solve of the workload on the degraded
		// system — what "forget everything and start over" would keep.
		envC := sim.BuildEnv(sc)
		if err := plan.ApplyEvents(envC.Sys, events); err != nil {
			t.Fatalf("seed %d: ApplyEvents: %v", seed, err)
		}
		pC := newChurnCorePlanner(envC.Sys, sc)
		submitWorkload(t, pC, envC.Queries)
		keptC := pC.AdmittedCount()

		if keptA < keptC {
			t.Errorf("seed %d: repair kept %d admissions, cold full re-solve keeps %d",
				seed, keptA, keptC)
		}
		if rrA.Migrated > rrB.Migrated {
			t.Errorf("seed %d: repair migrated %d operators, remove-and-resubmit moved only %d",
				seed, rrA.Migrated, rrB.Migrated)
		}
		if rrA.Migrated < rrB.Migrated {
			strictlyFewer++
		}
	}
	if strictlyFewer < seeds/2 {
		t.Errorf("repair migrated strictly fewer operators than remove-and-resubmit on only %d/%d seeds, want >= %d",
			strictlyFewer, seeds, seeds/2)
	}
}

// TestRepairInterfaceConformance drives Repair through all five planners:
// a failure of the busiest host followed by its recovery must leave every
// planner with a valid state that never references a down host, and the
// repair bookkeeping must be consistent.
func TestRepairInterfaceConformance(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			for _, q := range queries {
				if _, err := p.Submit(ctx, q); err != nil {
					t.Fatalf("Submit(%d): %v", q, err)
				}
			}
			fail := busiestPlannedHost(p.Assignment())
			rr, err := p.Repair(ctx, []sqpr.Event{sqpr.FailHost(fail)})
			if err != nil {
				t.Fatalf("Repair(fail %d): %v", fail, err)
			}
			if len(rr.Kept)+len(rr.Dropped) != len(rr.Affected) {
				t.Fatalf("kept %d + dropped %d != affected %d",
					len(rr.Kept), len(rr.Dropped), len(rr.Affected))
			}
			if err := p.Assignment().Validate(sys); err != nil {
				t.Fatalf("post-repair state infeasible: %v", err)
			}
			assertNoDownHostUsage(t, sys, p.Assignment(), 0)

			// Repairing the same failure again is a no-op.
			rr2, err := p.Repair(ctx, []sqpr.Event{sqpr.FailHost(fail)})
			if err != nil {
				t.Fatalf("idempotent Repair: %v", err)
			}
			if len(rr2.Affected) != 0 {
				t.Fatalf("second repair of the same failure affected %v", rr2.Affected)
			}

			// Recovery is also an event; afterwards dropped queries can be
			// resubmitted without error.
			if _, err := p.Repair(ctx, []sqpr.Event{sqpr.RecoverHost(fail)}); err != nil {
				t.Fatalf("Repair(recover %d): %v", fail, err)
			}
			for _, q := range rr.Dropped {
				if _, err := p.Submit(ctx, q); err != nil {
					t.Fatalf("resubmit dropped query %d: %v", q, err)
				}
			}
			if err := p.Assignment().Validate(sys); err != nil {
				t.Fatalf("post-recovery state infeasible: %v", err)
			}

			// Malformed events are rejected without corrupting state.
			before := snapshot(p)
			if _, err := p.Repair(ctx, []sqpr.Event{sqpr.FailHost(sqpr.HostID(sys.NumHosts() + 7))}); err == nil {
				t.Fatal("Repair accepted an out-of-range host")
			}
			if snapshot(p) != before {
				t.Fatal("rejected event mutated planner state")
			}
		})
	}
}
