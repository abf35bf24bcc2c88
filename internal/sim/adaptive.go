package sim

import (
	"context"
	"math"
	"sort"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
)

// AdaptiveResult reports the §IV-B adaptive-replanning experiment: how many
// queries survive a workload surge once the planner re-plans the drifted
// ones with corrected costs.
type AdaptiveResult struct {
	AdmittedBefore int
	// Drifted is the number of queries whose supporting operators drifted.
	Drifted int
	// Readmitted is how many drifted queries found a new placement.
	Readmitted     int
	AdmittedAfter  int
	MaxCPUBefore   float64
	MaxCPUAfter    float64
	ShortageBefore int // hosts above 90% CPU before replanning
	ShortageAfter  int
}

// Adaptive runs the experiment: plan the workload, inflate the cost of the
// most-loaded operators by surgeFactor (as the resource monitor would
// report), detect the drift against the system's cost table, and re-plan the
// affected queries.
func Adaptive(sc Scale, surgeFactor float64, surgeOps int) (AdaptiveResult, error) {
	var res AdaptiveResult
	env := BuildEnv(sc)
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	p := core.NewPlanner(env.Sys, cfg)
	ctx := context.Background()
	for _, q := range env.Queries {
		if _, err := p.Submit(ctx, q); err != nil {
			return res, err
		}
	}
	res.AdmittedBefore = p.AdmittedCount()
	before := p.Assignment().ComputeUsage(env.Sys)
	res.MaxCPUBefore = before.MaxCPU()
	res.ShortageBefore = len(ShortageHosts(env.Sys, before, 0.9))

	// Pick the most expensive placed operators and synthesise monitoring
	// observations with surged costs.
	type placed struct {
		op   dsps.OperatorID
		cost float64
	}
	var candidates []placed
	seen := map[dsps.OperatorID]bool{}
	for _, pl := range p.Assignment().Ops {
		if !seen[pl.Op] {
			seen[pl.Op] = true
			candidates = append(candidates, placed{pl.Op, env.Sys.Operators[pl.Op].Cost})
		}
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			if candidates[j].cost > candidates[i].cost ||
				(candidates[j].cost == candidates[i].cost && candidates[j].op < candidates[i].op) {
				candidates[i], candidates[j] = candidates[j], candidates[i]
			}
		}
	}
	if surgeOps > len(candidates) {
		surgeOps = len(candidates)
	}
	var obs []Observation
	for _, c := range candidates[:surgeOps] {
		obs = append(obs, Observation{Op: c.op, Cost: c.cost * surgeFactor})
	}
	reports := DetectDrift(env.Sys, obs, 0.2)
	driftedOps := make(map[dsps.OperatorID]float64, len(reports))
	for _, r := range reports {
		driftedOps[r.Op] = r.Observed
	}
	queries := p.DriftedQueries(driftedOps, 0.2)
	res.Drifted = len(queries)

	// Update the cost model to the observed reality, then re-plan.
	for op, observed := range driftedOps {
		env.Sys.Operators[op].Cost = observed
	}
	results, err := p.Replan(ctx, queries)
	if err != nil {
		return res, err
	}
	for _, r := range results {
		if r.Admitted {
			res.Readmitted++
		}
	}
	res.AdmittedAfter = p.AdmittedCount()
	after := p.Assignment().ComputeUsage(env.Sys)
	res.MaxCPUAfter = after.MaxCPU()
	res.ShortageAfter = len(ShortageHosts(env.Sys, after, 0.9))
	if err := p.Assignment().Validate(env.Sys); err != nil {
		return res, err
	}
	return res, nil
}

// Observation is one monitoring sample: the CPU cost an operator was
// measured to consume.
type Observation struct {
	Op   dsps.OperatorID
	Cost float64
}

// Drift quantifies the relative deviation between an operator's modelled
// cost and an observed cost.
func Drift(modelled, observed float64) float64 {
	if modelled == 0 {
		if observed == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(observed-modelled) / modelled
}

// DriftReport lists operators whose observed cost deviates from the
// system's current cost table by more than threshold, ordered by severity.
type DriftReport struct {
	Op       dsps.OperatorID
	Modelled float64
	Observed float64
	Relative float64
}

// DetectDrift compares observations against the system's operator costs
// (§IV-B condition (a): "resource consumption differs from the initial
// estimates by a given threshold").
func DetectDrift(sys *dsps.System, obs []Observation, threshold float64) []DriftReport {
	var out []DriftReport
	for _, o := range obs {
		modelled := sys.Operators[o.Op].Cost
		rel := Drift(modelled, o.Cost)
		if rel > threshold {
			out = append(out, DriftReport{Op: o.Op, Modelled: modelled, Observed: o.Cost, Relative: rel})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relative != out[j].Relative {
			return out[i].Relative > out[j].Relative
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// ShortageHosts returns hosts whose measured CPU usage exceeds frac of
// their budget (§IV-B condition (b): "suffer from a shortage of resources
// on a host").
func ShortageHosts(sys *dsps.System, usage *dsps.Usage, frac float64) []dsps.HostID {
	var out []dsps.HostID
	for h := 0; h < sys.NumHosts(); h++ {
		if cap := sys.Hosts[h].CPU; cap > 0 && usage.CPU[h] > frac*cap {
			out = append(out, dsps.HostID(h))
		}
	}
	return out
}
