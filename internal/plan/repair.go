package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"sqpr/internal/dsps"
)

// EventKind classifies one churn event handled by Repair.
type EventKind int8

// Churn event kinds.
const (
	// HostFailed: the host went down. Its allocations are invalid; the
	// queries they supported must be re-planned or dropped.
	HostFailed EventKind = iota
	// HostRecovered: the host is back up and may receive new load again.
	// Recovery never invalidates placements; harnesses typically follow it
	// by resubmitting previously dropped queries.
	HostRecovered
	// HostDrained: the host is being decommissioned gracefully. Existing
	// allocations keep running, but repair migrates them off best-effort
	// and planners avoid new placements there.
	HostDrained
	// QueryDrifted: the query's observed resource consumption diverged from
	// the plan (§IV-B); its placement should be re-optimised.
	QueryDrifted
	// CostDrifted: an operator's measured cost diverged from the cost model
	// (§IV-B). The new cost replaces the old one, and every admitted query
	// running the operator is re-planned under it.
	CostDrifted
)

// String returns a readable name for the kind.
func (k EventKind) String() string {
	switch k {
	case HostFailed:
		return "host-failed"
	case HostRecovered:
		return "host-recovered"
	case HostDrained:
		return "host-drained"
	case QueryDrifted:
		return "query-drifted"
	case CostDrifted:
		return "cost-drifted"
	}
	return fmt.Sprintf("EventKind(%d)", int8(k))
}

// Event is one churn event. Host events carry Host; QueryDrifted carries
// Query; CostDrifted carries Op and its new Cost.
type Event struct {
	Kind  EventKind
	Host  dsps.HostID
	Query dsps.StreamID
	Op    dsps.OperatorID
	Cost  float64
}

// FailHost returns a host-failure event.
func FailHost(h dsps.HostID) Event { return Event{Kind: HostFailed, Host: h} }

// RecoverHost returns a host-recovery event.
func RecoverHost(h dsps.HostID) Event { return Event{Kind: HostRecovered, Host: h} }

// DrainHost returns a graceful host-decommission event.
func DrainHost(h dsps.HostID) Event { return Event{Kind: HostDrained, Host: h} }

// DriftQuery returns a query-drift event.
func DriftQuery(q dsps.StreamID) Event { return Event{Kind: QueryDrifted, Query: q} }

// CostDrift returns the event of operator op measured at cost observed.
func CostDrift(op dsps.OperatorID, observed float64) Event {
	return Event{Kind: CostDrifted, Op: op, Cost: observed}
}

// ErrInvalidEvent reports an event that names a host, stream or operator
// outside the system, carries a cost that is not a finite non-negative
// number, or is of no known kind.
var ErrInvalidEvent = errors.New("invalid event")

// RepairResult reports the outcome of one Repair call. The embedded Result
// carries the solver telemetry of the delta solve (or the cumulative effort
// of the fallback resubmissions); Admitted reports whether every affected
// query is still served.
type RepairResult struct {
	Result
	// Affected lists the admitted queries the events invalidated (sorted):
	// support touching a failed or draining host, plus drifted queries.
	Affected []dsps.StreamID
	// Kept is the subset of Affected still admitted after the repair.
	Kept []dsps.StreamID
	// Dropped is the subset of Affected that lost its admission.
	Dropped []dsps.StreamID
	// Migrated counts operators that survived the repair on a different
	// host (see dsps.CountMigrations).
	Migrated int
}

// ApplyEvents applies the host-state transitions and cost changes of the
// event set to the system. It checks every event first and applies nothing
// if one is invalid (ErrInvalidEvent), so malformed events cannot corrupt
// state.
func ApplyEvents(sys *dsps.System, events []Event) error {
	for _, ev := range events {
		var err error
		switch ev.Kind {
		case HostFailed, HostRecovered, HostDrained:
			if int(ev.Host) < 0 || int(ev.Host) >= sys.NumHosts() {
				err = fmt.Errorf("host %d out of range", ev.Host)
			}
		case QueryDrifted:
			err = CheckStream(sys, ev.Query)
		case CostDrifted:
			err = checkCost(sys, OpCost{Op: ev.Op, Cost: ev.Cost})
		default:
			err = fmt.Errorf("unknown kind")
		}
		if err != nil {
			return fmt.Errorf("plan: event %v: %w: %w", ev.Kind, ErrInvalidEvent, err)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case HostFailed:
			sys.SetHostState(ev.Host, dsps.HostDown)
		case HostRecovered:
			sys.SetHostState(ev.Host, dsps.HostUp)
		case HostDrained:
			sys.SetHostState(ev.Host, dsps.HostDraining)
		case CostDrifted:
			sys.SetCost(ev.Op, ev.Cost)
		}
	}
	return nil
}

// checkCost rejects an operator outside sys — any negative one when sys is
// nil — and a cost that is NaN, infinite or negative.
func checkCost(sys *dsps.System, c OpCost) error {
	switch {
	case c.Op < 0 || sys != nil && int(c.Op) >= len(sys.Operators):
		return fmt.Errorf("operator %d out of range", c.Op)
	case !(c.Cost >= 0) || math.IsInf(c.Cost, 1):
		return fmt.Errorf("operator %d: cost %v is not a finite non-negative number", c.Op, c.Cost)
	}
	return nil
}

// Invalidated returns, ascending, the admitted queries of p whose plans the
// (applied) events invalidate: those with support on a down host, the
// targets of QueryDrifted events, and those running an operator whose cost
// a CostDrifted event changed.
func Invalidated(sys *dsps.System, p QueryPlanner, events []Event) []dsps.StreamID {
	a := p.Assignment()
	out := a.AffectedQueries(sys, func(h dsps.HostID) bool { return !sys.HostUsable(h) })
	for _, ev := range events {
		if ev.Kind == QueryDrifted && p.Admitted(ev.Query) {
			out = append(out, ev.Query)
		}
	}
	out = append(out, DriftedQueries(sys, a, DriftedOps(sys, events))...)
	slices.Sort(out)
	return slices.Compact(out)
}

// DriftedOps marks, by OperatorID, the operators CostDrifted events name;
// it is nil when no event does.
func DriftedOps(sys *dsps.System, events []Event) []bool {
	var drifted []bool
	for _, ev := range events {
		if ev.Kind == CostDrifted {
			if drifted == nil {
				drifted = make([]bool, len(sys.Operators))
			}
			drifted[ev.Op] = true
		}
	}
	return drifted
}

// DriftedQueries returns, ascending, the queries a provides whose support
// runs a drifted operator (see DriftedOps): the plans priced with a cost
// that no longer holds (§IV-B).
func DriftedQueries(sys *dsps.System, a *dsps.Assignment, drifted []bool) []dsps.StreamID {
	if drifted == nil {
		return nil
	}
	var out []dsps.StreamID
	seen := dsps.GetStamps(sys)
	defer seen.Release()
	stable := func(pl dsps.Placement) bool { return !drifted[pl.Op] }
	for _, pr := range a.Provides {
		seen.Next()
		if !a.WalkSupport(sys, pr.Host, pr.Stream, seen, stable, nil) {
			out = append(out, pr.Stream)
		}
	}
	return out
}

// RepairByResubmit is the fallback Repair shared by planners without a
// delta solver: apply the events, remove every query they invalidate (see
// Invalidated), and resubmit each one through the planner's own Submit,
// which re-places it on the surviving hosts under the current costs. It is
// correct — the resulting state never references down hosts and every
// affected query is either re-admitted or reported dropped — but migrates
// freely: resubmission forgets where the surviving operators ran. Draining
// hosts are left alone (their allocations are still valid; only the core
// delta solver evacuates them, on models small enough to search).
func RepairByResubmit(ctx context.Context, sys *dsps.System, p QueryPlanner, events []Event, opts ...SubmitOption) (RepairResult, error) {
	ctx = OrBackground(ctx)
	start := time.Now()
	var rr RepairResult
	if err := ApplyEvents(sys, events); err != nil {
		return rr, err
	}
	before := p.Assignment().Clone()

	rr.Affected = Invalidated(sys, p, events)
	if len(rr.Affected) == 0 {
		rr.Admitted = true
		rr.PlanTime = time.Since(start)
		return rr, nil
	}

	for _, q := range rr.Affected {
		if p.Admitted(q) {
			if err := p.Remove(q); err != nil {
				rr.PlanTime = time.Since(start)
				return rr, fmt.Errorf("plan: repair removing query %d: %w", q, err)
			}
		}
	}

	rr.Admitted = true
	for i, q := range rr.Affected {
		res, err := p.Submit(ctx, q, opts...)
		if err != nil {
			// This query and every remaining affected query stay
			// unadmitted; report them as dropped so the caller sees the
			// true degraded state.
			rr.Dropped = append(rr.Dropped, rr.Affected[i:]...)
			rr.Admitted = false
			rr.Migrated = dsps.CountMigrations(sys, before, p.Assignment())
			rr.PlanTime = time.Since(start)
			return rr, err
		}
		rr.Nodes += res.Nodes
		rr.LPIters += res.LPIters
		rr.Factor.Merge(res.Factor)
		if res.Admitted {
			rr.Kept = append(rr.Kept, q)
		} else {
			rr.Dropped = append(rr.Dropped, q)
			rr.Admitted = false
			rr.Reason = res.Reason
		}
	}
	rr.Migrated = dsps.CountMigrations(sys, before, p.Assignment())
	rr.PlanTime = time.Since(start)
	return rr, nil
}
