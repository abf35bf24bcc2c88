// Randomized conformance of the MILP tree-reduction layer at the planner
// level: with presolve and pseudo-cost branching on versus off, every
// submission of a seeded workload must reach the identical admission
// decision, and the final allocations must score the identical paper
// objective. CI runs this under -race (the large-model stagnation stop and
// all solver scratch pooling are exercised on the way).
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
	for seed := int64(1); seed <= int64(instances); seed++ {
		sc := sim.DefaultScale()
		sc.Hosts = 6
		sc.BaseStreams = 20
		sc.Queries = 8
		sc.Seed = seed
		// Generous, node-bounded budgets keep both searches deterministic:
		// the solves end on node limits and gap criteria, never on wall
		// clock.
		sc.Timeout = 10 * time.Second

		run := func(disable bool) (*core.Planner, *dsps.System, []bool) {
			env := sim.BuildEnv(sc)
			cfg := core.DefaultConfig()
			cfg.SolveTimeout = sc.Timeout
			cfg.MaxCandidateHosts = 6
			cfg.DisableTreeReduction = disable
			p := core.NewPlanner(env.Sys, cfg)
			ctx := context.Background()
			decisions := make([]bool, 0, len(env.Queries))
			for _, q := range env.Queries {
				res, err := p.Submit(ctx, q)
				if err != nil {
					t.Fatalf("seed %d disable=%v: %v", seed, disable, err)
				}
				decisions = append(decisions, res.Admitted)
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
}
