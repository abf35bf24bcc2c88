package sim

import (
	"cmp"
	"context"
	"math"
	"slices"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
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
// report), detect the drift against the system's cost table, and hand the
// drifted costs to Repair, which re-plans the affected queries.
func Adaptive(sc Scale, surgeFactor float64, surgeOps int) (AdaptiveResult, error) {
	var res AdaptiveResult
	env := BuildEnv(sc)
	// Not Env.NewPlanner: this experiment keeps core's default free-stream
	// cap (24), and at 30 its table changes (6 queries drift, not 9).
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

	// Pick the most expensive placed operators (the lowest id among equal
	// costs) and synthesise monitoring observations with surged costs.
	var placed []dsps.OperatorID // ascending: placements sort by operator
	for _, pl := range p.Assignment().Ops {
		placed = append(placed, pl.Op)
	}
	placed = slices.Compact(placed)
	cost := func(o dsps.OperatorID) float64 { return env.Sys.Operators[o].Cost }
	slices.SortStableFunc(placed, func(a, b dsps.OperatorID) int { return cmp.Compare(cost(b), cost(a)) })
	var obs []Observation
	for _, o := range placed[:min(surgeOps, len(placed))] {
		obs = append(obs, Observation{Op: o, Cost: cost(o) * surgeFactor})
	}
	rr, err := p.Repair(ctx, DetectDrift(env.Sys, obs, 0.2))
	if err != nil {
		return res, err
	}
	res.Drifted = len(rr.Affected)
	res.Readmitted = len(rr.Kept)
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

// driftEps is the observation floor below which a measurement on a
// zero-cost operator is monitoring noise, not drift.
const driftEps = 1e-9

// Drift quantifies the relative deviation between an operator's modelled
// cost and an observed cost. A zero-cost operator has drifted infinitely
// once it is observed above driftEps, and not at all before.
func Drift(modelled, observed float64) float64 {
	if modelled == 0 {
		if observed <= driftEps {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(observed-modelled) / modelled
}

// DetectDrift compares observations against the system's operator costs
// (§IV-B condition (a): "resource consumption differs from the initial
// estimates by a given threshold") and returns a cost event for each
// operator that drifted by more than threshold, the most drifted first.
// Observations of operators outside the system are skipped.
func DetectDrift(sys *dsps.System, obs []Observation, threshold float64) []plan.Event {
	drift := func(op dsps.OperatorID, observed float64) float64 { return Drift(sys.Operators[op].Cost, observed) }
	var out []plan.Event
	for _, o := range obs {
		if o.Op >= 0 && int(o.Op) < len(sys.Operators) && drift(o.Op, o.Cost) > threshold {
			out = append(out, plan.CostDrift(o.Op, o.Cost))
		}
	}
	slices.SortFunc(out, func(a, b plan.Event) int {
		return cmp.Or(cmp.Compare(drift(b.Op, b.Cost), drift(a.Op, a.Cost)), cmp.Compare(a.Op, b.Op))
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
