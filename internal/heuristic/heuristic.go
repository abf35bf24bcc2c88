// Package heuristic implements the hand-crafted baseline planner of §V-A:
// for every new query it enumerates all abstract query plans (join trees),
// tries to implement each plan on every host — aggressively reusing
// already-materialised sub-query streams — and picks the feasible candidate
// with the best weighted objective. Unlike SQPR it never revisits previous
// placement decisions and never splits a plan across multiple hosts.
package heuristic

import (
	"context"
	"math"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// Planner is the heuristic baseline. It implements plan.QueryPlanner and
// is not safe for concurrent use. The embedded ledger is its whole state;
// this package holds only the candidate search.
type Planner struct {
	plan.Ledger
	sys     *dsps.System
	weights core.Weights
	norm    core.Norm // the (III.3) normalisers; capacities never change

	// trial holds one copy of the allocation per query with its usage,
	// summed once; every candidate is realised on it and rolled back, which
	// restores that sum bit for bit.
	trial   dsps.Trial
	holders []dsps.HostID // fetch's scratch
}

// maxPlans caps abstract plan enumeration per query (exhaustive for the
// paper's 2- to 4-way joins; 5-way trees are pruned beyond this).
const maxPlans = 256

// New creates a heuristic planner with the same objective weights as SQPR.
func New(sys *dsps.System, w core.Weights) *Planner {
	return &Planner{
		Ledger:  plan.NewLedger("heuristic", sys),
		sys:     sys,
		weights: w,
		norm:    core.NormOf(sys),
	}
}

// Submit plans query q (and any plan.WithBatch companions, sequentially —
// the heuristic has no joint optimisation). plan.WithCandidateHosts
// restricts the hosts tried and plan.WithTimeout bounds the candidate
// search; every committed plan passes the feasibility re-check. Cancelling
// ctx aborts the search and leaves the planner state unchanged.
func (p *Planner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	return p.SubmitEach(ctx, q, opts, p.submitOne)
}

// Repair handles churn events with the shared fallback: remove the queries
// the events invalidated and resubmit them through this planner's own
// Submit, which re-places them on the surviving hosts.
func (p *Planner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	return plan.RepairByResubmit(ctx, p.sys, p, events, opts...)
}

// submitOne plans a single fresh query; reports admission and, on
// rejection, the machine-readable reason.
func (p *Planner) submitOne(ctx context.Context, q dsps.StreamID, cfg *plan.SubmitConfig, deadline time.Time) (bool, plan.Reason, error) {
	if err := ctx.Err(); err != nil {
		return false, plan.ReasonNone, err
	}
	allowed := cfg.HostSet()
	plans := p.plansFor(q, maxPlans)
	cand := p.Assignment().Clone()
	p.trial.Begin(cand)
	p.trial.Usage.Reset(p.sys, cand)
	bestScore := math.Inf(-1)
	var best *abstractPlan
	var bestHost dsps.HostID
	for _, pl := range plans {
		if err := ctx.Err(); err != nil {
			return false, plan.ReasonNone, err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break // best candidate so far stands, as with a solver timeout
		}
		for h := 0; h < p.sys.NumHosts(); h++ {
			// A down or draining host is no new assembly host.
			if (allowed != nil && !allowed[dsps.HostID(h)]) || !p.sys.HostPlaceable(dsps.HostID(h)) {
				continue
			}
			score, ok := p.implement(pl, q, dsps.HostID(h))
			p.trial.Rollback(0)
			if ok && score > bestScore {
				bestScore = score
				best = pl
				bestHost = dsps.HostID(h)
			}
		}
	}
	if best == nil {
		return false, plan.ReasonNoFeasiblePlan, nil
	}
	// Realise the winner again: from the same allocation it adds the same
	// pieces.
	p.implement(best, q, bestHost)
	cand.SetProvide(q, bestHost)
	if cand.Validate(p.sys) != nil {
		return false, plan.ReasonValidationFailed, nil
	}
	p.Commit(cand, q)
	return true, plan.ReasonNone, nil
}

// abstractPlan is one join tree: the operator choice for the result stream
// and, recursively, for each composite input.
type abstractPlan struct {
	op     dsps.OperatorID
	inputs []*abstractPlan // by input; nil entries are leaves (streams taken as-is)
}

// plansFor enumerates up to budget join trees producing s.
func (p *Planner) plansFor(s dsps.StreamID, budget int) []*abstractPlan {
	producers := p.sys.ProducersOf(s)
	if len(producers) == 0 {
		return nil
	}
	var out []*abstractPlan
	for _, opID := range producers {
		op := &p.sys.Operators[opID]
		// Cartesian product of sub-plans for each input; a leaf (nil)
		// means "obtain the stream as-is" which, for composite inputs,
		// is only valid when it is already materialised — the
		// implementation step checks that. To keep the baseline honest
		// we enumerate both compute-here and take-as-leaf variants for
		// composite inputs.
		choices := make([][]*abstractPlan, len(op.Inputs))
		for i, in := range op.Inputs {
			subs := []*abstractPlan{nil} // leaf variant
			if !p.sys.Streams[in].IsBase() {
				subs = append(subs, p.plansFor(in, budget/2)...)
			}
			choices[i] = subs
		}
		combos := cartesian(choices, budget-len(out))
		for _, combo := range combos {
			out = append(out, &abstractPlan{op: opID, inputs: combo})
			if len(out) >= budget {
				return out
			}
		}
	}
	return out
}

func cartesian(choices [][]*abstractPlan, budget int) [][]*abstractPlan {
	if budget <= 0 {
		budget = 1
	}
	acc := [][]*abstractPlan{nil}
	for _, ch := range choices {
		var next [][]*abstractPlan
		for _, prefix := range acc {
			for _, c := range ch {
				row := make([]*abstractPlan, 0, len(prefix)+1)
				row = append(row, prefix...)
				row = append(row, c)
				next = append(next, row)
				if len(next) >= budget*4 {
					break
				}
			}
		}
		acc = next
	}
	return acc
}

// implement tries to realise the plan with all its new operators on host h
// in the trial, fetching input streams from hosts that already have them,
// and returns the candidate's weighted objective (III.3). ok is false when
// the plan does not fit; the caller rolls the trial back either way.
func (p *Planner) implement(plan *abstractPlan, q dsps.StreamID, h dsps.HostID) (score float64, ok bool) {
	u := &p.trial.Usage
	if !p.realise(plan, h) || !u.FitsProvide(h, q, dsps.FitTol) {
		return 0, false
	}
	// +1 for the query being placed.
	return p.weights.Objective(p.norm, p.trial.Assignment.SatisfiedQueries()+1, u.Network, u.TotalCPU(), u.MaxCPU()), true
}

// realise recursively materialises the plan node's output at host h.
func (p *Planner) realise(plan *abstractPlan, h dsps.HostID) bool {
	op := &p.sys.Operators[plan.op]
	// Reuse first: if the output already exists somewhere, fetch it
	// (the paper's heuristic favours transferring complete sub-queries).
	if p.fetch(op.Output, h) {
		return true
	}
	// Otherwise place the operator here.
	pl := dsps.Placement{Host: h, Op: plan.op}
	if !p.trial.Usage.FitsOp(pl, dsps.FitTol) {
		return false
	}
	for i, in := range op.Inputs {
		// A leaf takes the input as it exists; a subtree computes it here.
		if sub := plan.inputs[i]; (sub == nil && !p.fetch(in, h)) || (sub != nil && !p.realise(sub, h)) {
			return false
		}
	}
	p.trial.AddOp(pl)
	return true
}

// fetch makes stream s available at h by reusing an existing copy — a
// base location, a host receiving it or one computing it, in host order;
// it never computes.
func (p *Planner) fetch(s dsps.StreamID, h dsps.HostID) bool {
	cand := p.trial.Assignment
	if cand.Available(p.sys, h, s) {
		return true
	}
	// h is not among the holders, and a flow that does not fit adds nothing.
	p.holders = cand.HoldersOf(p.sys, s, p.holders[:0])
	for _, m := range p.holders {
		f := dsps.Flow{From: m, To: h, Stream: s}
		if p.sys.HostUsable(m) && p.trial.Usage.FitsFlow(f, dsps.FitTol) {
			p.trial.AddFlow(f)
			return true
		}
	}
	return false
}
