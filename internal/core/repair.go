package core

import (
	"context"
	"slices"
	"time"

	"sqpr/internal/dsps"
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
// churn). The solve reuses the warm-start machinery of Submit: the stripped
// incumbent plus a greedy re-admission seeds the branch and bound, and the
// stateful LP solver resolves from its persistent basis.
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

	var firstErr error
	//sqpr:ctxloop each chunk repair polls ctx inside repairChunk
	for _, chunk := range p.repairChunks(replan) {
		res, err := p.repairChunk(ctx, chunk, before, noBonus, deadline)
		rr.Nodes += res.Nodes
		rr.LPIters += res.LPIters
		rr.Factor.Merge(res.Factor)
		rr.PresolveFixed += res.PresolveFixed
		rr.SolveStatus = res.SolveStatus
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
	return rr, firstErr
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
	for _, q := range affected {
		cl := p.closures.streamsOf(q)
		b.addFree(cl)
		if len(cur) > 0 &&
			(len(b.freeStreams) > p.cfg.MaxFreeStreams ||
				b.hostsTouched() > p.cfg.MaxCandidateHosts) {
			chunks = append(chunks, cur)
			cur = nil
			b.truncFree(0)
			b.addFree(cl)
		}
		cur = append(cur, q)
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// repairChunk runs one delta solve over the chunk's pinned free set.
func (p *Planner) repairChunk(ctx context.Context, chunk []dsps.StreamID, before *dsps.Assignment, noBonus []bool, deadline time.Time) (Result, error) {
	start := time.Now()
	var res Result
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Pinned free set: the closures of the chunk's queries, nothing else.
	b := p.newBuilder(chunk, true)
	res.FreeStreams = len(b.freeStreams)
	res.FreeOps = len(b.freeOps)
	res.CandidateHosts = len(b.hosts)

	// Each chunk gets the batch-scaled solver budget of an ordinary
	// planning call (and never more than the repair's global deadline):
	// repair latency must stay proportional to the damage, so one
	// degenerate chunk relaxation cannot eat the whole repair budget —
	// the warm incumbent stands in when the deadline cuts a solve short.
	if d := start.Add(time.Duration(len(chunk)) * p.cfg.SolveTimeout); d.Before(deadline) {
		deadline = d
	}

	// Does this chunk actually touch a drifted operator, or a draining
	// host? Only then must the re-optimisation machinery below treat it as
	// a drift or drain repair.
	drifted := func(op dsps.OperatorID) bool { return noBonus[op] }
	draining := func(h dsps.HostID) bool { return p.sys.Hosts[h].State == dsps.HostDraining }
	thorough := slices.ContainsFunc(b.freeOps, drifted) || slices.ContainsFunc(b.hosts, draining)

	// Migration costs: keeping a surviving free operator on the placeable
	// host it already runs on earns the stay bonus; placements on draining
	// hosts earn nothing, so evacuation is free and staying is not.
	for _, pl := range before.Ops {
		if zv, ok := b.z(pl.Host, pl.Op); ok && !drifted(pl.Op) && p.sys.HostPlaceable(pl.Host) {
			b.stay[zv-b.zBase] = true
			if prev := &b.prefer[b.oSlot[pl.Op]]; *prev < 0 || pl.Host < *prev {
				*prev = pl.Host
			}
		}
	}

	// Pure failure repair is decided by the pinned greedy, which only ever
	// adds to the surviving allocation (it never moves a placement),
	// preferring each severed operator's former host. If it re-admits every
	// chunk query, the result is simultaneously admission-complete and
	// migration-minimal — no delta solve can keep more queries or move
	// fewer survivors — so the MILP is skipped. On a large model its seed
	// stands even when it leaves a query out, as Submit's does (DESIGN.md
	// "Seed-decided calls"); the query comes back in Dropped. Drain chunks
	// (a draining candidate host needs evacuating) and drift chunks
	// (re-placement is the goal) always take the full solve.
	seed := b.seed(deadline)
	unserved := func(q dsps.StreamID) bool { _, ok := seed.Provider(q); return !ok }
	if !thorough && (b.numVars() >= largeModelVars || !slices.ContainsFunc(chunk, unserved)) {
		if res.Admitted = p.Stage(seed, chunk...); !res.Admitted {
			res.Reason = plan.ReasonNoFeasiblePlan
		}
		res.SeedClosed = true
		res.PlanTime = time.Since(start)
		p.Record(res)
		return res, nil
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
	// Drain and drift chunks exist to move away from the incumbent, so they
	// search deeper: the warm start still carries the placements those
	// chunks must undo, so the evacuation optimum only surfaces once the
	// search has re-derived it node by node, which a Submit-sized node cap
	// routinely cuts short.
	if thorough {
		opts.MaxNodes = 8 * submitMaxNodes
	}
	next, err := p.solve(ctx, b, seed, opts, &res)
	if next != nil {
		if res.Admitted = p.Stage(next, chunk...); !res.Admitted {
			res.Reason = plan.ReasonNoFeasiblePlan
		}
	}
	// Otherwise the degraded state is already committed; the chunk simply
	// stays un-repaired (its hard queries remain dropped) — on cancellation,
	// on unusable solver output, or when no feasible point was found within
	// the budget.
	res.PlanTime = time.Since(start)
	if err == nil {
		p.Record(res)
	}
	return res, err
}
