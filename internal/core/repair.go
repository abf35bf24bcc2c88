package core

import (
	"context"
	"math"
	"slices"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/milp"
	"sqpr/internal/plan"
)

// Repair is the SQPR planner's churn-repair operation (plan.QueryPlanner).
// It applies the event set's host-state transitions and cost changes,
// strips every allocation a failure invalidated, and re-plans exactly the
// affected queries with a *delta MILP*: all placements unaffected by the
// events stay pinned (the free set is the closures of the affected queries
// only — no sharing-merge), and the objective pays a migration cost for
// moving a surviving operator off its incumbent host, so repair plans reuse
// the running system instead of rebuilding it (§IV of the paper, applied to
// churn). Each chunk is decided as Submit decides a call: the stripped
// incumbent plus a greedy re-admission is the seed, which stands on a model
// of at least largeModelVars variables (so a drain there does not evacuate)
// and warm-starts the branch and bound below it.
//
// The event consequences commit even when re-planning fails or the ctx is
// cancelled: the planner state never references a down host after Repair
// returns. Affected queries that cannot be re-placed are reported in
// Dropped and may be resubmitted later (e.g. after a recovery).
//
// Large event sets are repaired in chunks bounded by Config.MaxFreeStreams,
// so each delta solve stays the size of a normal planning call.
func (p *Planner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	ctx = plan.OrBackground(ctx)
	start := time.Now()
	if invariant.Enabled {
		// A seed-decided chunk stages its seed unvalidated, and the next
		// Submit's commit check takes what the repair leaves to be valid.
		defer p.mustBeValid("repair")
	}
	var rr plan.RepairResult
	if err := plan.ApplyEvents(p.sys, events); err != nil {
		return rr, err
	}

	// Hard-affected queries lost support on a down host or drifted: their
	// admission is at stake. Soft-affected queries merely touch a draining
	// host: they stay admitted (constraint (IV.9)) while their placements
	// are freed so the solver can evacuate them.
	hard := plan.Invalidated(p.sys, p, events)
	affected := append(p.Assignment().AffectedQueries(p.sys, func(h dsps.HostID) bool { return !p.sys.HostPlaceable(h) }), hard...)
	slices.Sort(affected)
	affected = slices.Compact(affected)
	rr.Affected = affected

	if len(affected) == 0 {
		rr.Admitted = true
		rr.PlanTime = time.Since(start)
		return rr, nil
	}

	// Snapshot for migration accounting; assignments are swapped, never
	// mutated in place, so keeping the pointer suffices.
	before := p.Assignment()

	// Commit the failure: strip invalidated pieces, demote hard-affected
	// queries, and prune everything that lost its causal support. The
	// surviving support of the affected queries deliberately stays in the
	// state — even where a lost provide orphaned it — so the delta solve's
	// warm start and stay bonuses can pin it in place instead of
	// rebuilding it from scratch; the final garbage collection below
	// removes whatever the re-plan leaves unused. Until then every
	// allocation is staged, not committed: it holds support no provide
	// rests on. A drifted operator's placements go too: at its new cost
	// its host may be over budget, which no pinned solve could repair.
	// Only the demoted queries ran them.
	drifted := plan.DriftedOps(p.sys, events)
	stripped := before.Clone()
	for _, q := range hard {
		stripped.DeleteProvide(q)
	}
	stripped.StripFailed(p.sys)
	if drifted != nil {
		stripped.DeleteOpsFunc(func(pl dsps.Placement) bool { return drifted[pl.Op] })
	}
	stripped.PruneAcausal(p.sys)
	p.Stage(stripped, hard...)

	// Per-call options, mirroring Submit.
	cfg := plan.Apply(opts)
	total := cfg.Timeout
	if total <= 0 {
		total = time.Duration(len(affected)) * p.cfg.SolveTimeout
	}
	deadline := plan.Deadline(ctx, start, total)
	p.beginCall(cfg)

	// Drifted operators get no stay bonus: their costs changed, so
	// re-placing them is the point of the repair. Nor do the operators of a
	// drifted query that was admitted. The set is intersected with each
	// chunk's free operators, so a drift repair never slows the fast path of
	// an unrelated failure chunk.
	noBonus := make([]bool, len(p.sys.Operators)) // by OperatorID
	copy(noBonus, drifted)
	for _, ev := range events {
		if _, isHard := slices.BinarySearch(hard, ev.Query); ev.Kind != plan.QueryDrifted || !isHard {
			continue
		}
		for _, s := range p.closures.streamsOf(ev.Query) {
			for _, op := range p.sys.ProducersOf(s) {
				noBonus[op] = true
			}
		}
	}

	// Static producibility screen: a query whose every plan alternative
	// depends on a base stream with no usable source cannot be admitted by
	// any solver — drop it now instead of paying a delta solve to prove
	// it. (Recoveries make it producible again; the harness resubmits.)
	producible := p.producibleCheck()
	replan := affected[:0:0]
	for _, q := range affected {
		if p.Admitted(q) || producible(q) {
			replan = append(replan, q)
		}
	}

	// The call's Result sums its chunks' effort; it is seed-decided only
	// when every chunk was.
	var firstErr error
	chunks := p.repairChunks(replan)
	rr.SeedClosed = len(chunks) > 0
	//sqpr:ctxloop each chunk repair polls ctx inside repairChunk
	for _, chunk := range chunks {
		res, err := p.repairChunk(ctx, chunk, before, noBonus, deadline)
		rr.Nodes += res.Nodes
		rr.LPIters += res.LPIters
		rr.Factor.Merge(res.Factor)
		rr.PresolveFixed += res.PresolveFixed
		rr.SolveStatus = res.SolveStatus
		rr.BudgetHit = rr.BudgetHit || res.BudgetHit
		rr.SeedClosed = rr.SeedClosed && res.SeedClosed
		if err != nil {
			firstErr = err
			break
		}
	}

	// Drop the support the re-plan left unused (orphans of queries that
	// could not be re-admitted, kept alive above for pinning).
	p.GarbageCollect()

	rr.Admitted = true
	for _, q := range affected {
		if p.Admitted(q) {
			rr.Kept = append(rr.Kept, q)
		} else {
			rr.Dropped = append(rr.Dropped, q)
			rr.Admitted = false
			if rr.Reason == plan.ReasonNone {
				rr.Reason = plan.ReasonNoFeasiblePlan
			}
		}
	}
	rr.Migrated = dsps.CountMigrations(p.sys, before, p.Assignment())
	rr.PlanTime = time.Since(start)
	if len(chunks) > 0 {
		p.Record(rr.Result)
	}
	return rr, firstErr
}

// mustBeValid is the checked-build assertion that the allocation validates,
// as the ledger's invariant requires between calls.
func (p *Planner) mustBeValid(after string) {
	if err := p.Assignment().Validate(p.sys); err != nil {
		invariant.Failf("core: after %s the allocation is invalid: %v", after, err)
	}
}

// producibleCheck returns a memoised predicate for "stream s can be
// materialised somewhere under the current host states": a base stream
// needs a usable base host; a composite stream needs some producer whose
// inputs are all producible. Cycles through alternative producers resolve
// to false on the cycle path, like every closure walk in this package.
func (p *Planner) producibleCheck() func(s dsps.StreamID) bool {
	const (
		unknown int8 = iota
		yes
		no
		visiting
	)
	state := make([]int8, len(p.sys.Streams))
	var rec func(s dsps.StreamID) bool
	rec = func(s dsps.StreamID) bool {
		switch state[s] {
		case yes:
			return true
		case no, visiting:
			return false
		}
		state[s] = no
		if p.sys.Streams[s].IsBase() {
			if slices.ContainsFunc(p.sys.BaseHosts(s), p.sys.HostUsable) {
				state[s] = yes
			}
			return state[s] == yes
		}
		state[s] = visiting
		for _, op := range p.sys.ProducersOf(s) {
			if !slices.ContainsFunc(p.sys.Operators[op].Inputs, func(in dsps.StreamID) bool { return !rec(in) }) {
				state[s] = yes
				return true
			}
		}
		state[s] = no
		return false
	}
	return rec
}

// repairChunks partitions the affected queries so each chunk's merged
// closure stays within the free-stream budget and the hosts its current
// allocations touch stay within the candidate-host budget — the same two
// limits freeSet's sharing-merge enforces, which keep every delta solve
// the size (and cost) of an ordinary planning call. A single query whose
// closure exceeds the budgets still gets its own chunk.
func (p *Planner) repairChunks(affected []dsps.StreamID) [][]dsps.StreamID {
	var chunks [][]dsps.StreamID
	var cur []dsps.StreamID
	b := p.builder() // its free set accumulates the current chunk's closures
	b.clearTouched()
	for _, q := range affected {
		cl := p.closures.streamsOf(q)
		mark := len(b.freeStreams)
		b.addFree(cl)
		if len(cur) > 0 &&
			(len(b.freeStreams) > p.cfg.MaxFreeStreams ||
				!b.touchFree(mark, p.cfg.MaxCandidateHosts)) {
			chunks = append(chunks, cur)
			cur = nil
			b.truncFree(0)
			b.clearTouched()
			b.addFree(cl)
			mark = 0
		}
		if len(cur) == 0 {
			b.touchFree(mark, math.MaxInt) // a chunk's first query joins it whatever it touches
		}
		cur = append(cur, q)
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// repairChunk re-plans one chunk over its pinned free set and reports the
// chunk's solver effort; Repair records the call.
func (p *Planner) repairChunk(ctx context.Context, chunk []dsps.StreamID, before *dsps.Assignment, noBonus []bool, deadline time.Time) (Result, error) {
	start := time.Now()
	var res Result
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Pinned free set: the closures of the chunk's queries, nothing else.
	b := p.newBuilder(chunk, true)

	// Each chunk gets the batch-scaled solver budget of an ordinary
	// planning call (and never more than the repair's global deadline):
	// repair latency must stay proportional to the damage, so one
	// degenerate chunk relaxation cannot eat the whole repair budget —
	// the warm incumbent stands in when the deadline cuts a solve short.
	if d := start.Add(time.Duration(len(chunk)) * p.cfg.SolveTimeout); d.Before(deadline) {
		deadline = d
	}

	// Migration costs: keeping a surviving free operator on the placeable
	// candidate host it already runs on earns the stay bonus (builder.stays)
	// and makes that host the seed's preference; placements on draining
	// hosts earn nothing, so evacuation is free and staying is not. Drifted
	// operators earn neither: re-placing them is the point. Placements are
	// sorted by host, so the preference is the least such host.
	b.before, b.noBonus = before, noBonus
	for i, o := range b.freeOps {
		for _, pl := range before.PlacementsOf(o) {
			if b.hasHost(pl.Host) && b.stays(pl.Host, o) {
				b.prefer[i] = pl.Host
				break
			}
		}
	}

	// The pinned greedy only ever adds to the surviving allocation (it never
	// moves a placement), preferring each severed operator's former host.
	// The chunk is decided as Submit decides a call (DESIGN.md "Seed-decided
	// calls"): on a large model the seed stands, whatever the chunk's events,
	// and a query it leaves out comes back in Dropped; on a smaller one the
	// delta solve searches from it.
	seed := b.seed(ctx)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	opts := milp.Options{
		Ctx:                  ctx,
		Deadline:             deadline,
		MaxNodes:             submitMaxNodes,
		DisableTreeReduction: p.cfg.DisableTreeReduction,
		// Submit's gap tolerances are calibrated to admission counts (λ1
		// multiples); repair additionally optimises migration terms of
		// magnitude migrationWeight, so the allowed slack must sit below
		// one stay bonus or the solver may legally return a plan with
		// avoidable migrations.
		AbsGapTol: 0.25 * migrationWeight,
	}
	var next *dsps.Assignment
	var err error
	if b.numVars() >= largeModelVars {
		next, res.SeedClosed, res.SolveStatus = seed, true, milp.FeasibleMIP
	} else {
		next, err = p.solve(ctx, b, seed, opts, &res)
	}
	if next != nil {
		p.Stage(next, chunk...)
	}
	// Otherwise the degraded state is already committed; the chunk simply
	// stays un-repaired (its hard queries remain dropped) — on cancellation,
	// on unusable solver output, or when no feasible point was found within
	// the budget.
	return res, err
}
