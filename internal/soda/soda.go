// Package soda implements the basic functionality of the SODA scheduler
// (Wolf et al., Middleware'08) as described and re-implemented in §V-B of
// the SQPR paper: macroQ-style query admission based on aggregate resource
// consumption, followed by per-operator greedy placement (miniW-style) that
// is bound to a *fixed query template* — the canonical left-deep join
// order — reuses streams only by gluing templates together, receives each
// input stream at most once per host, and never relays streams through
// intermediate hosts nor revisits earlier placement decisions.
package soda

import (
	"context"
	"math"
	"sort"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// Planner is the SODA-like baseline. It implements plan.QueryPlanner and
// is not safe for concurrent use. The embedded ledger is its whole state:
// where a template operator runs — what "gluing templates" reuses — is
// read off the allocation (opHost), so nothing has to be rebuilt after an
// import, a remove or a rolled-back batch.
type Planner struct {
	plan.Ledger
	sys *dsps.System

	baseSets map[dsps.StreamID][]dsps.StreamID

	joinIdx   map[[2]dsps.StreamID]dsps.OperatorID
	joinIdxAt int // number of operators indexed so far

	// trial holds one copy of the allocation per query, on which every
	// candidate host of an operator is tried and rolled back; its usage is
	// the ledger of what the query has placed so far.
	trial dsps.Trial
}

// New creates a SODA-like planner. It takes no objective weights: miniW
// placement balances load only.
func New(sys *dsps.System) *Planner {
	return &Planner{
		Ledger:   plan.NewLedger("soda", sys),
		sys:      sys,
		baseSets: make(map[dsps.StreamID][]dsps.StreamID),
	}
}

// Submit runs admission (macroQ) and placement (miniW) for query q (and
// any plan.WithBatch companions, sequentially). plan.WithCandidateHosts
// restricts the hosts tried by miniW placement; every committed plan
// passes the feasibility re-check. Cancelling ctx aborts the call and
// leaves the planner state unchanged.
func (p *Planner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	return p.SubmitEach(ctx, q, opts, p.submitOne)
}

// Repair handles churn events with the shared fallback: remove the queries
// the events invalidated and resubmit them through this planner's own
// Submit, which re-places their templates on the surviving hosts.
func (p *Planner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	return plan.RepairByResubmit(ctx, p.sys, p, events, opts...)
}

// opHost returns the host template operator op runs on, if it is placed
// (each template operator is placed on at most one host).
func (p *Planner) opHost(op dsps.OperatorID) (dsps.HostID, bool) {
	if on := p.Assignment().PlacementsOf(op); len(on) > 0 {
		return on[0].Host, true
	}
	return 0, false
}

// submitOne plans one fresh query; reports admission and, on rejection,
// the machine-readable reason.
func (p *Planner) submitOne(ctx context.Context, q dsps.StreamID, cfg *plan.SubmitConfig, _ time.Time) (bool, plan.Reason, error) {
	if err := ctx.Err(); err != nil {
		return false, plan.ReasonNone, err
	}
	tmpl, ok := p.template(q)
	if !ok {
		return false, plan.ReasonNoTemplate, nil
	}
	cand := p.Assignment().Clone()
	p.trial.Begin(cand)
	u := &p.trial.Usage
	u.Reset(p.sys, cand)
	if !p.macroQ(tmpl, u) {
		return false, plan.ReasonResourceExhausted, nil
	}
	allowed := cfg.HostSet()
	var last dsps.HostID
	for _, opID := range tmpl {
		if err := ctx.Err(); err != nil {
			return false, plan.ReasonNone, err
		}
		if h, placed := p.opHost(opID); placed {
			last = h // reuse the glued sub-query as-is
			continue
		}
		h, okPlace := p.placeOp(opID, allowed)
		if !okPlace {
			return false, plan.ReasonNoFeasiblePlan, nil
		}
		last = h
	}
	// Delivery bandwidth at the providing host: that of the final operator.
	if !u.FitsProvide(last, q, dsps.FitTol) {
		return false, plan.ReasonNoFeasiblePlan, nil
	}
	cand.SetProvide(q, last)
	if cand.Validate(p.sys) != nil {
		return false, plan.ReasonValidationFailed, nil
	}
	p.Commit(cand, q)
	return true, plan.ReasonNone, nil
}

// template derives the fixed left-deep join chain over the sorted base set
// of q: ((b0 ⋈ b1) ⋈ b2) ⋈ …, returned in execution order. SODA is bound
// to this user-given structure and cannot restructure it.
func (p *Planner) template(q dsps.StreamID) ([]dsps.OperatorID, bool) {
	bases := p.baseSetOf(q)
	if len(bases) < 2 {
		return nil, false
	}
	var chain []dsps.OperatorID
	cur := bases[0]
	for i := 1; i < len(bases); i++ {
		next, ok := p.joinOf(cur, bases[i])
		if !ok {
			return nil, false
		}
		chain = append(chain, next)
		cur = p.sys.Operators[next].Output
	}
	if cur != q {
		return nil, false
	}
	return chain, true
}

// joinOf finds the operator joining exactly streams a and b using a lazily
// maintained index over the operator table.
func (p *Planner) joinOf(a, b dsps.StreamID) (dsps.OperatorID, bool) {
	if p.joinIdx == nil {
		p.joinIdx = make(map[[2]dsps.StreamID]dsps.OperatorID)
	}
	for ; p.joinIdxAt < len(p.sys.Operators); p.joinIdxAt++ {
		op := &p.sys.Operators[p.joinIdxAt]
		if len(op.Inputs) != 2 {
			continue
		}
		k := joinKey(op.Inputs[0], op.Inputs[1])
		if _, dup := p.joinIdx[k]; !dup {
			p.joinIdx[k] = op.ID
		}
	}
	op, ok := p.joinIdx[joinKey(a, b)]
	return op, ok
}

func joinKey(a, b dsps.StreamID) [2]dsps.StreamID {
	if a > b {
		a, b = b, a
	}
	return [2]dsps.StreamID{a, b}
}

// baseSetOf expands a stream to its sorted base-stream set.
func (p *Planner) baseSetOf(s dsps.StreamID) []dsps.StreamID {
	if cached, ok := p.baseSets[s]; ok {
		return cached
	}
	seen := make(map[dsps.StreamID]bool)
	var walk func(dsps.StreamID)
	walk = func(cur dsps.StreamID) {
		if p.sys.Streams[cur].IsBase() {
			seen[cur] = true
			return
		}
		producers := p.sys.ProducersOf(cur)
		if len(producers) == 0 {
			return
		}
		for _, in := range p.sys.Operators[producers[0]].Inputs {
			walk(in)
		}
	}
	walk(s)
	out := make([]dsps.StreamID, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	p.baseSets[s] = out
	return out
}

// macroQ admits the query if the aggregate CPU demand of its not-yet-placed
// template operators fits the system's remaining aggregate CPU.
func (p *Planner) macroQ(tmpl []dsps.OperatorID, u *dsps.Usage) bool {
	var demand float64
	for _, opID := range tmpl {
		if _, placed := p.opHost(opID); !placed {
			demand += p.sys.Operators[opID].Cost
		}
	}
	spare := p.sys.UsableCPU() - u.TotalCPU()
	return demand <= spare+dsps.FitTol
}

// placeOp places one template operator on the allowed host that minimises
// the load-balancing score, fetching each input once from its producing or
// base host (direct transfer only — no relays). On success the trial holds
// the winner.
func (p *Planner) placeOp(opID dsps.OperatorID, allowed map[dsps.HostID]bool) (dsps.HostID, bool) {
	mark := p.trial.Mark()
	bestScore := math.Inf(1)
	bestHost := dsps.HostID(-1)
	for h := 0; h < p.sys.NumHosts(); h++ {
		pl := dsps.Placement{Host: dsps.HostID(h), Op: opID}
		// A down or draining host takes no new operator placements.
		if (allowed != nil && !allowed[pl.Host]) || !p.sys.HostPlaceable(pl.Host) || !p.trial.Usage.FitsOp(pl, dsps.FitTol) {
			continue
		}
		score, ok := p.tryOp(pl)
		p.trial.Rollback(mark)
		if ok && score < bestScore {
			bestScore = score
			bestHost = pl.Host
		}
	}
	if bestHost < 0 {
		return 0, false
	}
	// Place the winner again: from the same allocation it adds the same
	// pieces.
	p.tryOp(dsps.Placement{Host: bestHost, Op: opID})
	return bestHost, true
}

// tryOp places pl in the trial with its inputs fetched and returns the
// load-balancing score: SODA's placement objective here is the largest
// per-host CPU.
func (p *Planner) tryOp(pl dsps.Placement) (float64, bool) {
	for _, in := range p.sys.Operators[pl.Op].Inputs {
		if !p.fetchDirect(in, pl.Host) {
			return 0, false
		}
	}
	p.trial.AddOp(pl)
	return p.trial.Usage.MaxCPU(), true
}

// fetchDirect brings stream s to host h in the trial with a single direct
// transfer from the host that originates it (local propagation means a
// stream already flowing into h is free).
func (p *Planner) fetchDirect(s dsps.StreamID, h dsps.HostID) bool {
	cand := p.trial.Assignment
	if cand.Available(p.sys, h, s) {
		return true
	}
	try := func(m dsps.HostID) bool {
		f := dsps.Flow{From: m, To: h, Stream: s}
		if m == h || !p.sys.HostUsable(m) || !p.trial.Usage.FitsFlow(f, dsps.FitTol) {
			return false
		}
		p.trial.AddFlow(f)
		return true
	}
	if p.sys.Streams[s].IsBase() {
		for _, m := range p.sys.BaseHosts(s) {
			if try(m) {
				return true
			}
		}
		return false
	}
	// Composite: only the host executing its producer may send it
	// (original host rule — no relaying).
	for _, opID := range p.sys.ProducersOf(s) {
		for _, pl := range cand.PlacementsOf(opID) {
			if try(pl.Host) {
				return true
			}
		}
	}
	return false
}
