// Package sim is the simulation harness of §V-A: it submits generated query
// workloads to planners one at a time (or in batches), tracks admission
// curves, resource utilisation and planning times, and contains one runner
// per figure of the paper's evaluation.
//
// The harness is the top of every experiment's call tree, so it is the one
// library package allowed to mint root contexts:
//
//sqpr:ctxroot-package experiment entry points own their lifecycles
package sim

import (
	"context"
	"time"

	"sqpr/internal/bound"
	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/heuristic"
	"sqpr/internal/plan"
	"sqpr/internal/soda"
)

// Submitter is the common planning interface exercised by the harness:
// every planner in this repository implements plan.QueryPlanner, so the
// harness needs no per-baseline adapters.
type Submitter = plan.QueryPlanner

// Recorder wraps any planner with per-call telemetry: planning times and
// the system CPU utilisation observed before each call (the Fig. 6
// measurement protocol). It implements plan.QueryPlanner by delegation.
type Recorder struct {
	P Submitter
	// PlanTimes records the duration of every planning call.
	PlanTimes []time.Duration
	// RepairTimes records the duration of every Repair call.
	RepairTimes []time.Duration
	// UtilisationAt records system CPU utilisation before each call.
	UtilisationAt []float64
	// Errors counts planning calls (Submit or Repair) that returned an
	// error; harness summaries surface a nonzero count instead of silently
	// folding failed calls into the admission numbers.
	Errors int
	sys    *dsps.System
}

// NewRecorder wraps a planner for the harness.
func NewRecorder(sys *dsps.System, p Submitter) *Recorder {
	return &Recorder{P: p, sys: sys}
}

// Submit implements plan.QueryPlanner, recording telemetry around the call.
func (a *Recorder) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	u := a.P.Assignment().ComputeUsage(a.sys)
	total := a.sys.TotalCPU()
	if total > 0 {
		a.UtilisationAt = append(a.UtilisationAt, u.TotalCPU()/total)
	} else {
		a.UtilisationAt = append(a.UtilisationAt, 0)
	}
	res, err := a.P.Submit(ctx, q, opts...)
	// Always append, keeping PlanTimes index-aligned with UtilisationAt
	// even when a call errors (the entry is then the partial call time).
	a.PlanTimes = append(a.PlanTimes, res.PlanTime)
	if err != nil {
		a.Errors++
	}
	return res, err
}

// Remove implements plan.QueryPlanner.
func (a *Recorder) Remove(q dsps.StreamID) error { return a.P.Remove(q) }

// Repair implements plan.QueryPlanner, recording the repair latency.
func (a *Recorder) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	res, err := a.P.Repair(ctx, events, opts...)
	a.RepairTimes = append(a.RepairTimes, res.PlanTime)
	if err != nil {
		a.Errors++
	}
	return res, err
}

// Assignment implements plan.QueryPlanner.
func (a *Recorder) Assignment() *dsps.Assignment { return a.P.Assignment() }

// Admitted implements plan.QueryPlanner.
func (a *Recorder) Admitted(q dsps.StreamID) bool { return a.P.Admitted(q) }

// AdmittedCount implements plan.QueryPlanner.
func (a *Recorder) AdmittedCount() int { return a.P.AdmittedCount() }

// Stats implements plan.QueryPlanner.
func (a *Recorder) Stats() plan.Stats { return a.P.Stats() }

// Curve is one admission series: Satisfied[i] is the cumulative number of
// satisfied queries after Inputs[i] submissions.
type Curve struct {
	Label     string
	Inputs    []int
	Satisfied []int
	// Errors counts submissions that returned an error (solver failures,
	// cancellations) rather than a clean rejection.
	Errors int
}

// RunAdmission submits all queries to the planner, checkpointing the
// cumulative number of satisfied submissions every step submissions.
// Duplicate submissions of an already-admitted query count as satisfied,
// matching the paper's "number of satisfied queries" axis (a user whose
// query is served by reuse is satisfied even though nothing new was
// deployed).
func RunAdmission(label string, p Submitter, queries []dsps.StreamID, step int) Curve {
	if step <= 0 {
		step = 1
	}
	c := Curve{Label: label}
	ctx := context.Background()
	satisfied := 0
	for i, q := range queries {
		res, err := p.Submit(ctx, q)
		switch {
		case err != nil:
			c.Errors++
		case res.Admitted:
			satisfied++
		}
		if (i+1)%step == 0 || i == len(queries)-1 {
			c.Inputs = append(c.Inputs, i+1)
			c.Satisfied = append(c.Satisfied, satisfied)
		}
	}
	return c
}

// CountSatisfied submits all queries and returns the number of satisfied
// submissions (duplicates included; see RunAdmission) together with the
// number of submissions that failed with an error — callers must surface a
// nonzero error count rather than let failed solves pass as rejections.
func CountSatisfied(p Submitter, queries []dsps.StreamID) (satisfied, errs int) {
	ctx := context.Background()
	for _, q := range queries {
		res, err := p.Submit(ctx, q)
		switch {
		case err != nil:
			errs++
		case res.Admitted:
			satisfied++
		}
	}
	return satisfied, errs
}

// Scale holds the experiment dimensions. The paper's absolute scale
// (50–150 hosts, CPLEX, 30 s timeouts) is reduced here because the MILP
// substrate is a hand-rolled solver; DESIGN.md documents the mapping.
type Scale struct {
	Hosts       int
	CPUPerHost  float64
	OutBW       float64
	InBW        float64
	LinkCap     float64
	BaseStreams int
	BaseRate    float64
	Queries     int
	Zipf        float64
	Arities     []int
	Timeout     time.Duration
	MaxCandHost int
	Seed        int64
}

// DefaultScale is the reduced-scale counterpart of the paper's 50-host,
// 500-base-stream simulation.
func DefaultScale() Scale {
	return Scale{
		Hosts:       16,
		CPUPerHost:  7,
		OutBW:       70,
		InBW:        70,
		LinkCap:     30,
		BaseStreams: 100,
		BaseRate:    10,
		Queries:     150,
		Zipf:        1,
		Arities:     []int{2, 3, 4},
		Timeout:     150 * time.Millisecond,
		MaxCandHost: 8,
		Seed:        1,
	}
}

// Env bundles a built system and workload.
type Env struct {
	Sys     *dsps.System
	Queries []dsps.StreamID
}

// BuildEnv constructs the system and workload for a scale.
func BuildEnv(sc Scale) *Env {
	sys := buildSystem(sc)
	w := generate(sys, sc)
	return &Env{Sys: sys, Queries: w}
}

// NewPlanner builds the harness's SQPR planner over the environment: the
// scale's solve timeout and candidate-host cap, and 30 free streams.
func (e *Env) NewPlanner(sc Scale) *core.Planner {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	cfg.MaxFreeStreams = 30
	return core.NewPlanner(e.Sys, cfg)
}

// NewSQPR builds a telemetry-recording SQPR planner at the given timeout.
func (e *Env) NewSQPR(sc Scale, timeout time.Duration) *Recorder {
	sc.Timeout = timeout
	return NewRecorder(e.Sys, e.NewPlanner(sc))
}

// NewHeuristic builds the heuristic baseline.
func (e *Env) NewHeuristic() Submitter { return heuristic.New(e.Sys, core.PaperWeights()) }

// NewBound builds the optimistic-bound planner.
func (e *Env) NewBound() Submitter { return bound.New(e.Sys) }

// NewSODA builds the SODA-like baseline.
func (e *Env) NewSODA() Submitter { return soda.New(e.Sys) }
