// Package plan defines the unified planning surface shared by every SQPR
// planner: the QueryPlanner interface, the Result/Stats structs, the
// functional submit options, and the typed errors of the public API. All
// five planners (core SQPR, heuristic, SODA-like, optimistic bound,
// hierarchical) implement QueryPlanner, so harnesses, tools and examples
// drive any of them through one call shape.
package plan

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/lp"
	"sqpr/internal/milp"
)

// QueryPlanner is the context-aware planning interface implemented by all
// planners in this repository. Implementations are not safe for concurrent
// use; drive each planner from a single goroutine.
type QueryPlanner interface {
	// Submit plans query stream q (plus any WithBatch companions) and
	// reports the outcome. A ctx cancellation or deadline aborts the
	// planning call promptly, returns ctx.Err() and leaves the planner
	// state unchanged.
	//
	//sqpr:mutates
	Submit(ctx context.Context, q dsps.StreamID, opts ...SubmitOption) (Result, error)
	// Remove withdraws an admitted query, releasing every resource no
	// remaining query depends on. Removing a query that is not admitted
	// returns an error wrapping ErrNotAdmitted.
	//
	//sqpr:mutates
	Remove(q dsps.StreamID) error
	// Repair reacts to churn events — host failures, recoveries, drains
	// and query drift — by applying the host-state transitions to the
	// system and re-planning exactly the queries the events invalidated.
	// Unlike Submit, Repair commits the event consequences even when the
	// re-planning step fails: a failed host's allocations are stripped no
	// matter what, so the planner state never references down hosts. The
	// core SQPR planner solves a migration-minimal delta MILP; the other
	// planners fall back to remove-and-resubmit of the affected queries
	// (see RepairByResubmit).
	//
	//sqpr:mutates
	Repair(ctx context.Context, events []Event, opts ...SubmitOption) (RepairResult, error)
	// Assignment exposes the current allocation state (do not mutate).
	// Planners without a physical placement (the optimistic bound) return
	// an assignment with no placements.
	Assignment() *dsps.Assignment
	// Admitted reports whether query stream q is currently served.
	Admitted(q dsps.StreamID) bool
	// AdmittedCount returns the number of admitted queries.
	AdmittedCount() int
	// Stats returns cumulative planner telemetry.
	Stats() Stats
}

// Typed errors shared by every planner. Wrap-and-compare with errors.Is.
var (
	// ErrUnknownStream reports a StreamID outside the system's stream table.
	ErrUnknownStream = errors.New("unknown stream")
	// ErrNotRequested reports a stream that was never marked as a query.
	ErrNotRequested = errors.New("stream not marked as requested")
	// ErrNotAdmitted reports a Remove of a query that is not admitted.
	ErrNotAdmitted = errors.New("query not admitted")
)

// OrBackground returns ctx, defaulting nil to context.Background(). It is
// the module's single nil-ctx normalisation point: every planner accepts a
// nil ctx for convenience, and no other library code may mint a root
// context (the ctxflow analyzer enforces this; deliberate detached roots
// are annotated //sqpr:ctxroot at the call site).
func OrBackground(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	//sqpr:ctxroot the API-wide nil-ctx default lives here and only here
	return context.Background()
}

// CheckStream validates that q indexes a stream of sys, returning an error
// wrapping ErrUnknownStream otherwise. Every planner calls this before
// touching sys.Streams[q], so caller-supplied IDs can never panic.
func CheckStream(sys *dsps.System, q dsps.StreamID) error {
	if int(q) < 0 || int(q) >= len(sys.Streams) {
		return fmt.Errorf("plan: stream %d: %w", q, ErrUnknownStream)
	}
	return nil
}

// Reason is a machine-readable explanation for a rejected submission.
type Reason int8

// Rejection reasons. ReasonNone accompanies admitted results.
const (
	// ReasonNone: the query was admitted (or was already admitted).
	ReasonNone Reason = iota
	// ReasonNoFeasiblePlan: no feasible placement was found within the
	// search budget (resources, deadline or node limit).
	ReasonNoFeasiblePlan
	// ReasonResourceExhausted: an aggregate admission check failed before
	// placement was attempted (SODA's macroQ, the optimistic bound).
	ReasonResourceExhausted
	// ReasonNoTemplate: the planner's fixed query template cannot express
	// this query (SODA's left-deep join chains).
	ReasonNoTemplate
	// ReasonValidationFailed: a candidate plan failed feasibility
	// validation and was discarded.
	ReasonValidationFailed
)

// String returns a readable name for the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonNoFeasiblePlan:
		return "no-feasible-plan"
	case ReasonResourceExhausted:
		return "resource-exhausted"
	case ReasonNoTemplate:
		return "no-template"
	case ReasonValidationFailed:
		return "validation-failed"
	}
	return fmt.Sprintf("Reason(%d)", int8(r))
}

// Result describes the outcome of one planning call, for every planner.
// Baseline planners leave the solver-effort fields zero.
type Result struct {
	// Admitted reports whether every query of the call — the primary one
	// and any WithBatch companions — is served after the call (true also
	// when all were already served before the call, so admission curves
	// count resubmissions as satisfied, matching §V-A). With a batch,
	// check Admitted(q) per query to tell which members were placed.
	Admitted bool
	// AlreadyAdmitted is set when the identical query was served before
	// the call (Algorithm 1, line 3).
	AlreadyAdmitted bool
	// Reason explains a rejection; ReasonNone when admitted.
	Reason Reason
	// SolveStatus is the MILP outcome (core SQPR and hierarchical only).
	SolveStatus milp.Status
	// PlanTime is the wall-clock duration of the planning call.
	PlanTime time.Duration
	// Nodes and LPIters report solver effort.
	Nodes   int
	LPIters int
	// Factor carries the sparse LP engine's factorization telemetry for
	// this call (core SQPR and hierarchical only): refactorization and
	// drift-rebuild counts, eta-file appends, peak eta-file length and LU
	// fill-in ratio. See lp.FactorStats.
	Factor lp.FactorStats
	// BudgetHit reports that the deadline or node budget cut the MILP
	// search short. A solve that stopped on its gap tolerance or proved
	// optimality leaves it false.
	BudgetHit bool
	// PresolveFixed counts variables eliminated before the search (core
	// SQPR and hierarchical only; see internal/milp).
	PresolveFixed int
	// FreeStreams and FreeOps report the reduced problem size.
	FreeStreams, FreeOps, CandidateHosts int
	// ModelVars is the variable count of the compiled MILP model solved by
	// this call (core SQPR and hierarchical only; 0 when no solve ran).
	ModelVars int
	// SeedClosed reports that no solve ran because the greedy seed already
	// decided the call (core SQPR and hierarchical only): a Submit or a
	// failure Repair chunk on a large reduced model, which keeps what its
	// seed placed and rejects the rest (Admitted false, Reason
	// ReasonNoFeasiblePlan, when the seed left a query out); a smaller
	// Submit whose seed sits within the gap tolerance of (III.3)'s a-priori
	// ceiling; or a Repair chunk whose seed re-admitted every query. The
	// solver-effort fields are then zero.
	SeedClosed bool
	// BeyondSeed counts the fresh queries of a Submit solve that the call
	// admitted and its greedy seed had not placed: what the search bought
	// over the seed (core SQPR and hierarchical only; 0 when SeedClosed).
	BeyondSeed int
}

// Stats aggregates planner telemetry across all planning calls.
type Stats struct {
	// Submissions counts planning calls (batch = one call).
	Submissions int
	// Rejections counts calls that failed to admit a fresh query.
	Rejections int
	// TotalPlanTime accumulates wall-clock planning time.
	TotalPlanTime time.Duration
	// TotalNodes and TotalLPIters accumulate solver effort.
	TotalNodes   int
	TotalLPIters int
	// Factor accumulates factorization telemetry across calls: counters
	// add, peak eta-file length and fill-in ratio stay high-water marks.
	Factor lp.FactorStats
	// TotalPresolveFixed accumulates the variables the MILP presolve
	// eliminated, making its effect observable end to end.
	TotalPresolveFixed int
	// TotalCuts and TotalFixings are always zero: the solver layer that
	// fed them is gone, and they are retained only because bench/ reads
	// them, until the next benchmark PR drops milp.cuts_per_solve and
	// milp.fixings_per_solve.
	TotalCuts    int
	TotalFixings int
	// Timeouts counts calls whose solver was cut short by its deadline or
	// node budget, whether or not it held an incumbent by then (a budget
	// hit with nothing found, NoSolution, counts too). Gap-tolerance stops
	// are not timeouts: they are deliberate early exits, not a budget
	// problem an operator should tune away.
	Timeouts int
	// Stalls is always zero: the solver's stagnation stop is gone, and it
	// is retained only because bench/ reads it, until the benchmark drops
	// core.stalls.
	Stalls int
	// SeedClosed counts calls the greedy seed decided without a solve (see
	// Result.SeedClosed), admissions and seed-decided rejections alike: the
	// effort totals above are spread over at most Submissions − SeedClosed
	// calls, which is what a per-solve average divides by. The rejections
	// among them are counted in Rejections too.
	SeedClosed int
	// BeyondSeed accumulates Result.BeyondSeed: the queries Submit solves
	// admitted beyond their seeds.
	BeyondSeed int
}

// Record folds one call's outcome into the cumulative stats.
func (s *Stats) Record(res Result) {
	s.Submissions++
	if !res.Admitted {
		s.Rejections++
	}
	s.TotalPlanTime += res.PlanTime
	s.TotalNodes += res.Nodes
	s.TotalLPIters += res.LPIters
	s.Factor.Merge(res.Factor)
	s.TotalPresolveFixed += res.PresolveFixed
	if res.BudgetHit {
		s.Timeouts++
	}
	if res.SeedClosed {
		s.SeedClosed++
	}
	s.BeyondSeed += res.BeyondSeed
}

// SubmitConfig collects the per-call settings assembled from SubmitOptions.
type SubmitConfig struct {
	// Timeout overrides the planner's per-call solver budget. Zero keeps
	// the planner default (which batch submissions scale by batch size).
	Timeout time.Duration
	// Hosts, when non-nil, restricts the discretionary candidate hosts of
	// the call (hosts that correctness forces in are always kept).
	Hosts []dsps.HostID
	// Batch lists additional queries planned jointly with the primary one
	// in a single optimisation (§V-A1).
	Batch []dsps.StreamID
}

// SubmitOption customises one Submit call.
type SubmitOption func(*SubmitConfig)

// WithTimeout bounds the planning call by d instead of the planner's
// configured default. The context deadline, when earlier, still wins.
func WithTimeout(d time.Duration) SubmitOption {
	return func(c *SubmitConfig) { c.Timeout = d }
}

// WithCandidateHosts restricts the call's candidate host universe to the
// given set (plus hosts forced in for correctness: hosts already carrying
// related allocations and the query's base-stream locations). This is the
// building block of the hierarchical decomposition (internal/hier).
func WithCandidateHosts(hosts ...dsps.HostID) SubmitOption {
	return func(c *SubmitConfig) { c.Hosts = append([]dsps.HostID(nil), hosts...) }
}

// WithBatch plans the given queries jointly with the primary query in one
// optimisation; the solve deadline scales with the total batch size, as in
// the paper's "timeout of 30n secs" (Fig. 4(b)).
func WithBatch(qs ...dsps.StreamID) SubmitOption {
	return func(c *SubmitConfig) { c.Batch = append([]dsps.StreamID(nil), qs...) }
}

// Apply folds the options into a SubmitConfig.
func Apply(opts []SubmitOption) SubmitConfig {
	var c SubmitConfig
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// Queries returns the full query list of a call: the primary query followed
// by any batch companions.
func (c *SubmitConfig) Queries(q dsps.StreamID) []dsps.StreamID {
	out := make([]dsps.StreamID, 0, 1+len(c.Batch))
	out = append(out, q)
	out = append(out, c.Batch...)
	return out
}

// HostSet returns the candidate-host restriction as a set, or nil when the
// call does not restrict hosts.
func (c *SubmitConfig) HostSet() map[dsps.HostID]bool {
	if c.Hosts == nil {
		return nil
	}
	set := make(map[dsps.HostID]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		set[h] = true
	}
	return set
}
