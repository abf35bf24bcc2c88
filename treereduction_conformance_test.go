// Randomized conformance of the MILP tree-reduction layer at the planner
// level: with presolve and pseudo-cost branching on versus off, every
// submission of a seeded workload must reach the identical admission
// decision, and the final allocations must score the identical paper
// objective. The instances are sized below the planner's large-model line,
// so Algorithm 1's search decides their submissions in both modes. CI runs
// this under -race (all solver scratch pooling is exercised on the way).
package sqpr_test

import (
	"context"
	"math"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/sim"
)

// paperObjective scores an assignment with the paper's weighted objective
// (III.3), normalised exactly like the planner's.
func paperObjective(sys *dsps.System, a *dsps.Assignment, w core.Weights) float64 {
	u := a.ComputeUsage(sys)
	totalLink := sys.TotalLinkCap()
	if totalLink <= 0 {
		totalLink = 1
	}
	totalCPU := sys.TotalCPU()
	if totalCPU <= 0 {
		totalCPU = 1
	}
	maxCPU := 0.0
	for _, h := range sys.Hosts {
		if h.CPU > maxCPU {
			maxCPU = h.CPU
		}
	}
	if maxCPU <= 0 {
		maxCPU = 1
	}
	return w.L1*float64(a.SatisfiedQueries()) -
		w.L2*u.Network/totalLink -
		w.L3*u.TotalCPU()/totalCPU -
		w.L4*u.MaxCPU()/maxCPU
}

// objTol bounds the final-objective difference between the two runs. The
// admission term (λ1) must match exactly — that is asserted separately via
// the per-query decisions — while the sub-λ1 placement terms may differ by
// the per-solve absolute gap the planner itself permits.
const objTol = 1e-6

func TestTreeReductionPlannerConformance(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 10
	}
	// searched counts, per mode, the submissions that ran the search;
	// deep those that branched beyond its root.
	var searched, deep [2]int
	for seed := int64(1); seed <= int64(instances); seed++ {
		sc := sim.DefaultScale()
		sc.Hosts = 4
		sc.CPUPerHost = 2
		sc.BaseStreams = 20
		sc.Queries = 12
		sc.Seed = seed
		// Generous, node-bounded budgets keep both searches deterministic:
		// the solves end on node limits and gap criteria, never on wall
		// clock.
		sc.Timeout = 10 * time.Second

		run := func(disable bool) (*core.Planner, *dsps.System, []bool) {
			env := sim.BuildEnv(sc)
			cfg := core.DefaultConfig()
			cfg.SolveTimeout = sc.Timeout
			cfg.MaxCandidateHosts = 3
			cfg.DisableTreeReduction = disable
			mode := 0
			if disable {
				mode = 1
			}
			p := core.NewPlanner(env.Sys, cfg)
			ctx := context.Background()
			decisions := make([]bool, 0, len(env.Queries))
			for _, q := range env.Queries {
				res, err := p.Submit(ctx, q)
				if err != nil {
					t.Fatalf("seed %d disable=%v: %v", seed, disable, err)
				}
				decisions = append(decisions, res.Admitted)
				if res.Nodes > 0 {
					searched[mode]++
				}
				if res.Nodes > 1 {
					deep[mode]++
				}
			}
			return p, env.Sys, decisions
		}
		pOn, sysOn, dOn := run(false)
		pOff, sysOff, dOff := run(true)

		for i := range dOn {
			if dOn[i] != dOff[i] {
				t.Fatalf("seed %d: query %d admitted=%v with tree reduction, %v without",
					seed, i, dOn[i], dOff[i])
			}
		}
		if pOn.AdmittedCount() != pOff.AdmittedCount() {
			t.Fatalf("seed %d: admitted %d vs %d", seed, pOn.AdmittedCount(), pOff.AdmittedCount())
		}
		w := core.PaperWeights()
		objOn := paperObjective(sysOn, pOn.Assignment(), w)
		objOff := paperObjective(sysOff, pOff.Assignment(), w)
		if math.Abs(objOn-objOff) > objTol {
			t.Fatalf("seed %d: final objective %.4f with tree reduction, %.4f without",
				seed, objOn, objOff)
		}
	}
	t.Logf("searched submissions: %d with tree reduction (%d beyond the root), %d without (%d)",
		searched[0], deep[0], searched[1], deep[1])
	// A floor, so that the conformance cannot go vacuous: submissions the
	// seed decides compare no searches.
	for mode, n := range searched {
		if n < 2*instances {
			t.Fatalf("DisableTreeReduction=%v: only %d searched submissions over %d instances (want ≥ %d)", mode == 1, n, instances, 2*instances)
		}
	}
}
