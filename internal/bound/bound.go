// Package bound computes the optimistic upper bound of §V-A: all hosts are
// aggregated into a single synthetic host holding every base stream, with
// CPU capacity Σ ζ_h and no network constraints. The number of queries this
// aggregate host can satisfy upper-bounds what any planner can achieve on
// the real network, even with globally optimal planning.
package bound

import (
	"context"
	"math"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// Planner is the aggregate-host bound calculator. Queries are admitted
// sequentially with full global reuse: operators already placed by earlier
// queries cost nothing for later ones. It implements plan.QueryPlanner;
// because the aggregate host is synthetic, the embedded ledger's allocation
// stays empty and Assignment() carries no physical placements.
type Planner struct {
	plan.Ledger
	sys      *dsps.System
	budget   float64 // remaining aggregate CPU
	capacity float64 // total usable aggregate CPU (tracks host churn)
	placed   map[dsps.OperatorID]bool
	// charged records the marginal CPU each admitted query was billed, so
	// Remove can refund it. Refunds and the persistently placed operator
	// closure are both optimistic, preserving the upper-bound property.
	charged map[dsps.StreamID]float64
	// lastAux is the aux of the previous TakeDelta; nil before the first.
	lastAux []byte
}

// New creates the bound planner for a system. The aggregate budget counts
// usable (non-down) hosts only, so a bound built over a degraded system
// stays an upper bound for that system.
func New(sys *dsps.System) *Planner {
	return &Planner{
		Ledger:   plan.NewLedger("bound", sys),
		sys:      sys,
		budget:   sys.UsableCPU(),
		capacity: sys.UsableCPU(),
		placed:   make(map[dsps.OperatorID]bool),
		charged:  make(map[dsps.StreamID]float64),
	}
}

// Submit admits q (and any plan.WithBatch companions, sequentially) if the
// marginal CPU cost of the cheapest plan (reusing all previously placed
// operators) fits the remaining aggregate budget. The host-restriction and
// validation options are no-ops on the synthetic aggregate host.
//
// To stay a true *upper* bound on any real planner, the reuse accounting is
// deliberately optimistic: once q is admitted, the entire plan space of q —
// every operator of every alternative join order — is treated as available
// for reuse at zero cost by later queries. A real planner can only reuse
// operators it actually placed, which is a subset, so its marginal costs
// are never lower and its admission count never higher.
func (p *Planner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	// Per-query work is pure CPU arithmetic, so one upfront ctx poll
	// suffices, and a call that fails does so before any admission.
	if err := plan.OrBackground(ctx).Err(); err != nil {
		return plan.Result{}, err
	}
	return p.SubmitEach(ctx, q, opts, p.submitOne)
}

// submitOne admits one fresh query if its marginal cost fits the budget.
func (p *Planner) submitOne(_ context.Context, q dsps.StreamID, _ *plan.SubmitConfig, _ time.Time) (bool, plan.Reason, error) {
	cost, _, ok := p.cheapest(q, make(map[dsps.StreamID]bool))
	if !ok {
		return false, plan.ReasonNoFeasiblePlan, nil
	}
	if cost > p.budget+dsps.FitTol {
		return false, plan.ReasonResourceExhausted, nil
	}
	p.budget -= cost
	p.charged[q] = cost
	p.markClosurePlaced(q)
	p.SetAdmitted(q, true)
	return true, plan.ReasonNone, nil
}

// Remove withdraws an admitted query and refunds the marginal CPU it was
// charged. The operator closure stays marked as placed — deliberately
// optimistic, which keeps the bound an upper bound (refunded budget and
// free reuse can only increase later admissions).
func (p *Planner) Remove(q dsps.StreamID) error {
	if err := p.Ledger.Remove(q); err != nil {
		return err
	}
	p.refund(q)
	return nil
}

// refund returns q's charge to the budget.
func (p *Planner) refund(q dsps.StreamID) {
	p.budget += p.charged[q]
	delete(p.charged, q)
}

// Repair adjusts the aggregate CPU budget to the post-event usable host
// set. On failures the lost capacity is subtracted; if the remaining
// admissions no longer fit, the fewest possible queries (largest charges
// first) are dropped, which keeps the count an upper bound on any real
// planner's surviving admissions. Recoveries restore capacity. The bound
// has no physical placements, so nothing migrates. A cost event changes the
// system's cost table, which prices later admissions, and leaves the charges
// of admitted queries as they are; a query-drift event is a no-op (the
// bound's reuse accounting is already maximally optimistic).
func (p *Planner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	ctx = plan.OrBackground(ctx)
	start := time.Now()
	var rr plan.RepairResult
	if err := plan.ApplyEvents(p.sys, events); err != nil {
		return rr, err
	}
	if err := ctx.Err(); err != nil {
		return rr, err
	}
	newCap := p.sys.UsableCPU()
	p.budget += newCap - p.capacity
	p.capacity = newCap
	for p.budget < -dsps.FitTol {
		// Deficit: drop the query with the largest charge (fewest drops),
		// the lowest id among equals.
		worst := dsps.StreamID(-1)
		for _, q := range p.AdmittedQueries() {
			if worst < 0 || p.charged[q] > p.charged[worst] {
				worst = q
			}
		}
		if worst < 0 {
			break // nothing left to drop; capacity is simply negative
		}
		p.refund(worst)
		p.SetAdmitted(worst, false)
		rr.Affected = append(rr.Affected, worst)
		rr.Dropped = append(rr.Dropped, worst)
	}
	rr.Admitted = len(rr.Dropped) == 0
	if !rr.Admitted {
		rr.Reason = plan.ReasonResourceExhausted
	}
	rr.PlanTime = time.Since(start)
	return rr, nil
}

// markClosurePlaced registers every operator in q's plan-space closure as
// placed (see Submit for why this optimism is required).
func (p *Planner) markClosurePlaced(q dsps.StreamID) {
	seen := make(map[dsps.StreamID]bool)
	stack := []dsps.StreamID{q}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		for _, op := range p.sys.ProducersOf(s) {
			p.placed[op] = true
			stack = append(stack, p.sys.Operators[op].Inputs...)
		}
	}
}

// cheapest computes the minimum marginal CPU cost to materialise stream s
// on the aggregate host, together with the operators chosen. visiting
// guards against cycles through alternative producers.
func (p *Planner) cheapest(s dsps.StreamID, visiting map[dsps.StreamID]bool) (float64, []dsps.OperatorID, bool) {
	if p.sys.Streams[s].IsBase() {
		return 0, nil, true
	}
	if visiting[s] {
		return 0, nil, false
	}
	visiting[s] = true
	defer delete(visiting, s)

	best := math.Inf(1)
	var bestOps []dsps.OperatorID
	for _, opID := range p.sys.ProducersOf(s) {
		if p.placed[opID] {
			// Already running: its output is materialised at zero cost.
			return 0, nil, true
		}
	}
	for _, opID := range p.sys.ProducersOf(s) {
		op := &p.sys.Operators[opID]
		total := op.Cost
		ops := []dsps.OperatorID{opID}
		ok := true
		for _, in := range op.Inputs {
			c, sub, o := p.cheapest(in, visiting)
			if !o {
				ok = false
				break
			}
			total += c
			ops = append(ops, sub...)
		}
		if ok && total < best {
			best = total
			bestOps = ops
		}
	}
	if math.IsInf(best, 1) {
		return 0, nil, false
	}
	// Deduplicate operators shared between sub-trees so their cost is not
	// double-counted.
	seen := make(map[dsps.OperatorID]bool, len(bestOps))
	var uniq []dsps.OperatorID
	var cost float64
	for _, o := range bestOps {
		if !seen[o] {
			seen[o] = true
			uniq = append(uniq, o)
			cost += p.sys.Operators[o].Cost
		}
	}
	return cost, uniq, true
}
