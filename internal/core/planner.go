// Package core implements the SQPR query planner (§III–§IV of the paper):
// query admission, operator placement and cross-query reuse solved as a
// single mixed-integer linear program, with problem reduction so that each
// planning call only optimises over the streams and operators related to
// the newly submitted query.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/milp"
	"sqpr/internal/plan"
)

// Weights are the objective weights λ1–λ4 of (III.3): admitted queries,
// network usage, CPU usage and load balance.
type Weights struct {
	L1 float64 // satisfied queries (O1)
	L2 float64 // system-wide network usage (O2), applied to O2/Σκ
	L3 float64 // system-wide CPU usage (O3), applied to O3/Σζ
	L4 float64 // maximum per-host CPU (O4), applied to O4/ζ_max
}

// PaperWeights mirrors §IV-A: λ1 is a large constant so admission dominates,
// λ2 and λ3 normalise network and CPU usage to [0,1], and λ4 balances load
// with the same weight as average CPU consumption.
func PaperWeights() Weights { return Weights{L1: 100, L2: 1, L3: 1, L4: 1} }

// Norm holds the denominators that bring O2–O4 of (III.3) to [0,1] for one
// system: Σκ, Σζ and ζmax, each 1 where the system has none.
type Norm struct{ Link, CPU, MaxCPU float64 }

// NormOf computes the normalisers of sys.
func NormOf(sys *dsps.System) Norm {
	n := Norm{Link: sys.TotalLinkCap(), CPU: sys.TotalCPU()}
	for _, h := range sys.Hosts {
		n.MaxCPU = max(n.MaxCPU, h.CPU)
	}
	if n.Link <= 0 {
		n.Link = 1
	}
	if n.CPU <= 0 {
		n.CPU = 1
	}
	if n.MaxCPU <= 0 {
		n.MaxCPU = 1
	}
	return n
}

// Objective evaluates (III.3) for a plan serving the given number of
// queries at the given network use, CPU use and maximum per-host CPU:
// λ1·O1 − λ2·O2/Σκ − λ3·O3/Σζ − λ4·O4/ζmax.
//
//sqpr:hotpath
func (w Weights) Objective(n Norm, satisfied int, network, cpu, maxCPU float64) float64 {
	return w.L1*float64(satisfied) - w.L2*network/n.Link - w.L3*cpu/n.CPU - w.L4*maxCPU/n.MaxCPU
}

// provide is the (III.3) coefficient c_hs of provide variable d_hs. Draining
// hosts should shed their delivery points too: the reduced reward still
// dwarfs every other term, but a provider that can move off moves.
func (w Weights) provide(sys *dsps.System, h dsps.HostID) float64 {
	if sys.Hosts[h].State == dsps.HostDraining {
		return w.L1 - migrationWeight
	}
	return w.L1
}

// Config tunes the planner.
type Config struct {
	Weights Weights
	// SolveTimeout bounds the search of each planning call, after which
	// the best incumbent found so far is used (the paper's CPLEX timeout):
	// Submit calls and Repair chunks on models below largeModelVars, the
	// only ones that search. The greedy seed never reads it, so a
	// seed-decided call comes out the same under any timeout. A
	// plan.WithTimeout submit option overrides it per call, and a ctx
	// deadline always wins when earlier.
	SolveTimeout time.Duration
	// SolveWorkers is ignored; kept only for bench/harness.go, which still
	// assigns it (the branch and bound runs on the calling goroutine).
	SolveWorkers int
	// MaxCandidateHosts caps the hosts considered by one planning call.
	// Hosts already involved with related streams are always included.
	// 0 selects a default of 10.
	MaxCandidateHosts int
	// MaxFreeStreams caps how many streams the sharing closure may free in
	// one call; beyond the cap further sharing queries stay fixed (their
	// availability is preserved by explicit rows). 0 selects 24.
	MaxFreeStreams int
	// DisableReduction plans over all streams and operators (a test
	// reference; the paper shows the full problem is intractable).
	DisableReduction bool
	// DisableTreeReduction turns off MILP presolve and pseudo-cost
	// branching, so the solver runs plain most-fractional branch and
	// bound (conformance tests compare both modes).
	DisableTreeReduction bool
}

// DefaultConfig returns the configuration used by the evaluation harness.
func DefaultConfig() Config {
	return Config{
		Weights:           PaperWeights(),
		SolveTimeout:      500 * time.Millisecond,
		MaxCandidateHosts: 10,
	}
}

// largeModelVars is the layout size from which the greedy seed decides a
// planning call without a solve: Submit commits what the seed placed and
// rejects the rest, and a Repair chunk, whatever its events, stages its
// pinned seed (DESIGN.md "Seed-decided calls"). Below it both always build
// the model and run Algorithm 1's search from the seed. The line sits about
// 2× clear of both sides of what was measured: the hand-built scenarios
// whose search admits what the seed cannot lay out 43–53 variables, and the
// smallest seed-decided models of the S15 workloads and the sqpr-sim
// figures 233.
const largeModelVars = 128

// submitGapTol stops a Submit search when the incumbent is provably within
// this relative gap of the optimum. Because λ1 dominates the objective, a
// small relative gap never sacrifices admissions.
const submitGapTol = 0.01

// submitMaxNodes caps the branch-and-bound nodes of one solve, a Submit
// call's or a Repair chunk's alike.
const submitMaxNodes = 80

// migrationWeight is the objective reward Repair grants for keeping a
// surviving operator on its incumbent host (equivalently, the cost of
// migrating it). It exceeds the normalised quality terms (λ2–λ4
// contributions are at most ~1 each) so placement polish never causes a
// migration, while staying well below Weights.L1 so an admission is never
// sacrificed to avoid one.
const migrationWeight = 2

// Planner is the SQPR planner. It implements plan.QueryPlanner and is not
// safe for concurrent use.
type Planner struct {
	// Ledger holds the allocation and the admitted set — the requested
	// streams currently served (Σ_h d_hs = 1).
	plan.Ledger
	sys *dsps.System
	cfg Config

	// allowedHosts, when non-nil, restricts discretionary candidate hosts
	// for the current call (plan.WithCandidateHosts).
	allowedHosts map[dsps.HostID]bool

	// bld is the pooled model builder, reused across submissions so a
	// long-lived planner stops churning the heap on every call.
	bld *builder

	closures *closureCache

	// norm holds the (III.3) normalisers: host and link capacities never
	// change after dsps.NewSystem, so they are summed once.
	norm Norm
}

// Result describes the outcome of one planning call; it is the shared
// result type of plan.QueryPlanner, with a machine-readable rejection
// Reason.
type Result = plan.Result

// Stats aggregates planner telemetry across all planning calls; it is the
// shared telemetry type of plan.QueryPlanner.
type Stats = plan.Stats

// NewPlanner creates a planner over the system with the given config.
func NewPlanner(sys *dsps.System, cfg Config) *Planner {
	if cfg.Weights == (Weights{}) {
		cfg.Weights = PaperWeights()
	}
	if cfg.MaxCandidateHosts <= 0 {
		cfg.MaxCandidateHosts = 10
	}
	if cfg.MaxFreeStreams <= 0 {
		cfg.MaxFreeStreams = 24
	}
	if cfg.SolveTimeout <= 0 {
		cfg.SolveTimeout = 500 * time.Millisecond
	}
	return &Planner{
		Ledger:   plan.NewLedger("core", sys),
		sys:      sys,
		cfg:      cfg,
		closures: newClosureCache(sys),
		norm:     NormOf(sys),
	}
}

// Submit runs Algorithm 1 (initial query planning) for query q. Options
// customise the call: plan.WithTimeout overrides the solver budget,
// plan.WithCandidateHosts restricts the candidate host universe (the
// building block of internal/hier), plan.WithBatch plans additional
// queries jointly in one optimisation with the deadline scaled by the
// batch size (§V-A1). On a reduced model of at least largeModelVars
// variables the greedy seed decides the call instead of the MILP (DESIGN.md
// "Seed-decided calls"), whatever the timeout; on a smaller one the search
// from the seed does, within it. Every plan committed passes the dsps
// feasibility validator. Cancelling ctx aborts the seed or the MILP search
// promptly and leaves the planner state unchanged.
func (p *Planner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (Result, error) {
	ctx = plan.OrBackground(ctx)
	cfg := plan.Apply(opts)
	qs := cfg.Queries(q)

	timeout := cfg.Timeout
	if timeout <= 0 {
		// Batch submissions scale the default deadline with the batch
		// size, as in the paper's "timeout of 30n secs".
		timeout = time.Duration(len(qs)) * p.cfg.SolveTimeout
	}

	p.beginCall(cfg)
	return p.submit(ctx, qs, timeout)
}

// beginCall resolves the per-call option Submit and Repair share: the
// candidate-host restriction, read only by the builders of the call that
// set it.
func (p *Planner) beginCall(cfg plan.SubmitConfig) {
	p.allowedHosts = cfg.HostSet()
}

func (p *Planner) submit(ctx context.Context, qs []dsps.StreamID, timeout time.Duration) (Result, error) {
	start := time.Now()
	var res Result

	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Algorithm 1, line 3: skip queries that are already admitted.
	var fresh []dsps.StreamID
	for _, q := range qs {
		if err := plan.CheckStream(p.sys, q); err != nil {
			return res, fmt.Errorf("core: %w", err)
		}
		if !p.sys.Streams[q].Requested {
			return res, fmt.Errorf("core: stream %d: %w", q, plan.ErrNotRequested)
		}
		if p.Admitted(q) {
			res.AlreadyAdmitted = true
			continue
		}
		fresh = append(fresh, q)
	}
	if len(fresh) == 0 {
		res.Admitted = true
		res.PlanTime = time.Since(start)
		p.Record(res)
		return res, nil
	}

	// Effective deadline: the earlier of the solver budget and the ctx
	// deadline, so a ctx deadline also bounds individual node LPs.
	deadline := plan.Deadline(ctx, start, timeout)

	// The whole batch is planned jointly over the union of the closures:
	// the sparse LP prices a solve at its nonzero count. MaxFreeStreams bounds
	// closure growth only where sharing queries are merged (closure.go) and
	// repairs are chunked (repair.go).
	b := p.newBuilder(fresh, false)
	res.FreeStreams = len(b.freeStreams)
	res.FreeOps = len(b.freeOps)
	res.CandidateHosts = len(b.hosts)

	opts := milp.Options{
		Ctx:                  ctx,
		Deadline:             deadline,
		MaxNodes:             submitMaxNodes,
		GapTol:               submitGapTol,
		DisableTreeReduction: p.cfg.DisableTreeReduction,
		// λ1 dominates: any absolute gap well below λ1 cannot hide a
		// further admission. A small (but not tiny) gap lets the search
		// keep improving placement quality within its deadline while
		// still fathoming hopeless subtrees early.
		AbsGapTol: 0.02 * p.cfg.Weights.L1,
	}
	// The seed extends the live allocation in place, under the builder's
	// trial: every outcome below that does not commit it rolls the trial
	// back to mark 0, which restores the allocation and its ledger exactly.
	// What it placed is read first.
	seed := b.seedOn(ctx, p.Assignment())
	placed := b.placedScratch[:0]
	for _, q := range fresh {
		_, ok := seed.Provider(q)
		placed = append(placed, ok)
	}
	b.placedScratch = placed
	var next *dsps.Assignment
	var err error
	switch large := b.numVars() >= largeModelVars; {
	case ctx.Err() != nil:
		b.trial.Rollback(0)
		err = ctx.Err()
	case large && !slices.Contains(placed, true):
		// The seed placed nothing on a large model: the call is rejected,
		// with nothing built and nothing committed.
		b.trial.Rollback(0)
		res.SeedClosed, res.SolveStatus = true, milp.FeasibleMIP
		res.Reason = plan.ReasonNoFeasiblePlan
	case large:
		// On a large model the seed decides (a measured heuristic, DESIGN.md
		// "Seed-decided calls"): the search from it never admitted more, and
		// no model is built.
		res.SeedClosed, res.SolveStatus = true, milp.FeasibleMIP
		next, err = p.checkedSeed(b, seed, &res)
	default:
		// Algorithm 1's search, from the seed, on a small model: there a
		// late admission find is cheap and real (the Fig. 2 shared-chain
		// and relay scenarios need more than 48 nodes). The seed is taken
		// as the incumbent and rolled back before the model is built, so
		// the build and the decode read the allocation of before the call.
		incumbent := b.vectorOf(seed)
		b.trial.Rollback(0)
		next, err = p.solveFrom(ctx, b, incumbent, opts, &res)
	}
	if next != nil {
		// Accept the new allocation; with several fresh queries, Admitted
		// reports "all admitted".
		if res.Admitted = p.Commit(next, fresh...); !res.Admitted {
			res.Reason = plan.ReasonNoFeasiblePlan
		}
		for i, q := range fresh {
			if !placed[i] && p.Admitted(q) {
				res.BeyondSeed++
			}
		}
	}
	// Otherwise — cancelled, no feasible plan within the budget, or unusable
	// solver output — the query is not admitted and the state is unchanged
	// (Algorithm 1 keeps the previous solution).
	res.PlanTime = time.Since(start)
	if err == nil {
		p.Record(res)
	}
	return res, err
}

// checkedSeed prunes the live allocation Submit seeded and passes it on
// to commit unless the commit check refuses it; then it rolls the trial
// back to mark 0, undoing the prune with the seed, and returns nil. The
// seed is the valid allocation plus pieces accepts admitted, so unless
// pruning deleted something the check covers those pieces alone.
func (p *Planner) checkedSeed(b *builder, seed *dsps.Assignment, res *Result) (*dsps.Assignment, error) {
	var added *dsps.Extension
	if !b.pruneUnused(seed) {
		added = b.trial.Extension(0)
	}
	next, err := p.validated(seed, added, res)
	if next == nil {
		b.trial.Rollback(0)
	}
	return next, err
}

// solve builds the model, runs it from the seed and decodes the solver's
// answer into the next assignment, filling res's solver telemetry. It
// returns nil when there is nothing to commit: with an error when ctx was
// cancelled mid-solve (any incumbent is discarded) or the output fails to
// decode or validate, and with res.Reason set when no feasible point was
// found within the budget.
func (p *Planner) solve(ctx context.Context, b *builder, seed *dsps.Assignment, opts milp.Options, res *Result) (*dsps.Assignment, error) {
	return p.solveFrom(ctx, b, b.vectorOf(seed), opts, res)
}

// solveFrom is solve from the seed's point in the model's variable space.
func (p *Planner) solveFrom(ctx context.Context, b *builder, incumbent []float64, opts milp.Options, res *Result) (*dsps.Assignment, error) {
	model := b.build()
	res.ModelVars = model.NumVars()
	opts.Incumbent = incumbent
	sol := model.Solve(opts)
	res.SolveStatus = sol.Status
	res.Nodes = sol.Nodes
	res.LPIters = sol.LPIters
	res.Factor = sol.Factor
	res.PresolveFixed = sol.PresolveFixed
	res.BudgetHit = sol.BudgetHit

	if sol.Cancelled || ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if sol.Err != nil {
		return nil, fmt.Errorf("core: %w", sol.Err)
	}
	if sol.X == nil {
		res.Reason = plan.ReasonNoFeasiblePlan
		return nil, nil
	}
	next, err := b.decode(sol.X)
	if err != nil {
		return nil, fmt.Errorf("core: decoding solver output: %w", err)
	}
	return p.validated(next, nil, res)
}

// validated passes next through unless the dsps validator refuses it. A
// non-nil ext says next is the committed allocation, valid by the ledger's
// invariant, extended by ext's pieces: dsps.ValidateExtension then decides
// as Validate would, over those pieces and the budgets they touch instead
// of the whole allocation.
func (p *Planner) validated(next *dsps.Assignment, ext *dsps.Extension, res *Result) (*dsps.Assignment, error) {
	var err error
	if ext == nil {
		err = next.Validate(p.sys)
	} else {
		err = next.ValidateExtension(p.sys, ext)
		if invariant.Enabled {
			if full := next.Validate(p.sys); (err == nil) != (full == nil) {
				invariant.Failf("core: the extension's check says %v, Validate says %v", err, full)
			}
		}
	}
	if err != nil {
		res.Reason = plan.ReasonValidationFailed
		return nil, fmt.Errorf("core: planned allocation infeasible: %w", err)
	}
	return next, nil
}
