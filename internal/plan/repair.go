package plan

import (
	"context"
	"fmt"
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
	}
	return fmt.Sprintf("EventKind(%d)", int8(k))
}

// Event is one churn event. Host events carry Host; QueryDrifted carries
// Query.
type Event struct {
	Kind  EventKind
	Host  dsps.HostID
	Query dsps.StreamID
}

// FailHost returns a host-failure event.
func FailHost(h dsps.HostID) Event { return Event{Kind: HostFailed, Host: h} }

// RecoverHost returns a host-recovery event.
func RecoverHost(h dsps.HostID) Event { return Event{Kind: HostRecovered, Host: h} }

// DrainHost returns a graceful host-decommission event.
func DrainHost(h dsps.HostID) Event { return Event{Kind: HostDrained, Host: h} }

// DriftQuery returns a query-drift event.
func DriftQuery(q dsps.StreamID) Event { return Event{Kind: QueryDrifted, Query: q} }

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

// ApplyEvents applies the host-state transitions of the event set to the
// system, validating IDs first so malformed events cannot corrupt state.
func ApplyEvents(sys *dsps.System, events []Event) error {
	for _, ev := range events {
		switch ev.Kind {
		case HostFailed, HostRecovered, HostDrained:
			if int(ev.Host) < 0 || int(ev.Host) >= sys.NumHosts() {
				return fmt.Errorf("plan: event %v: host %d out of range", ev.Kind, ev.Host)
			}
		case QueryDrifted:
			if err := CheckStream(sys, ev.Query); err != nil {
				return fmt.Errorf("plan: event %v: %w", ev.Kind, err)
			}
		default:
			return fmt.Errorf("plan: unknown event kind %d", int8(ev.Kind))
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
		}
	}
	return nil
}

// DriftedEventQueries extracts the QueryDrifted targets that are currently
// admitted, deduplicated against the already-collected affected set.
func DriftedEventQueries(events []Event, affected []dsps.StreamID, admitted func(dsps.StreamID) bool) []dsps.StreamID {
	have := make(map[dsps.StreamID]bool, len(affected))
	for _, q := range affected {
		have[q] = true
	}
	var extra []dsps.StreamID
	for _, ev := range events {
		if ev.Kind == QueryDrifted && !have[ev.Query] && admitted(ev.Query) {
			have[ev.Query] = true
			extra = append(extra, ev.Query)
		}
	}
	return extra
}

// RepairByResubmit is the fallback Repair shared by planners without a
// delta solver: apply the events, remove every query invalidated by a host
// failure (or flagged as drifted), and resubmit each one through the
// planner's own Submit, which re-places it on the surviving hosts. It is
// correct — the resulting state never references down hosts and every
// affected query is either re-admitted or reported dropped — but migrates
// freely: resubmission forgets where the surviving operators ran. Draining
// hosts are left alone (their allocations are still valid; only the core
// delta solver evacuates them).
func RepairByResubmit(ctx context.Context, sys *dsps.System, p QueryPlanner, events []Event, opts ...SubmitOption) (RepairResult, error) {
	ctx = OrBackground(ctx)
	start := time.Now()
	var rr RepairResult
	if err := ApplyEvents(sys, events); err != nil {
		return rr, err
	}
	before := p.Assignment().Clone()

	rr.Affected = p.Assignment().AffectedQueries(sys, func(h dsps.HostID) bool {
		return !sys.HostUsable(h)
	})
	rr.Affected = append(rr.Affected, DriftedEventQueries(events, rr.Affected, p.Admitted)...)
	slices.Sort(rr.Affected)
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
	// Removal garbage-collects all invalidated support; strip any stray
	// down-host pieces defensively so resubmission starts from a clean,
	// feasible state even if the planner left orphans behind.
	p.Assignment().StripFailed(sys)

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
