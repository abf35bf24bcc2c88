package plan

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
)

// Ledger is the bookkeeping every planner keeps around its placement
// algorithm: the system, the current allocation, the admitted query set
// and the cumulative Stats. A planner embeds one and thereby implements
// the seven bookkeeping methods of QueryPlanner and StatePorter; what is
// left in the planner's own package is how it places a query. The methods
// below are the only code that writes the allocation pointer or the
// admitted set, so an admitted query and its provide change together.
type Ledger struct {
	name     string // error prefix, the planner's package name
	sys      *dsps.System
	state    *dsps.Assignment
	admitted map[dsps.StreamID]bool
	stats    Stats
}

// NewLedger returns the empty ledger of a planner over sys (the initial
// solution of Algorithm 1, line 1).
func NewLedger(name string, sys *dsps.System) Ledger {
	return Ledger{
		name:     name,
		sys:      sys,
		state:    dsps.NewAssignment(),
		admitted: make(map[dsps.StreamID]bool),
	}
}

// Assignment exposes the current allocation (do not mutate).
func (l *Ledger) Assignment() *dsps.Assignment { return l.state }

// Admitted reports whether query stream q is currently served.
func (l *Ledger) Admitted(q dsps.StreamID) bool { return l.admitted[q] }

// AdmittedCount returns the number of admitted queries.
func (l *Ledger) AdmittedCount() int { return len(l.admitted) }

// AdmittedQueries lists the admitted queries in ascending order.
func (l *Ledger) AdmittedQueries() []dsps.StreamID {
	return slices.Sorted(maps.Keys(l.admitted))
}

// Stats returns cumulative planner telemetry.
func (l *Ledger) Stats() Stats { return l.stats }

// Record folds one planning call's outcome into the cumulative stats.
func (l *Ledger) Record(res Result) { l.stats.Record(res) }

// Commit installs next as the allocation and marks each of the given
// queries admitted exactly when next provides it. It reports whether next
// provides all of them. Every provide in next must be of an admitted query
// or of one of queries: a provide the admitted set does not count would
// hold bandwidth no Remove can release.
func (l *Ledger) Commit(next *dsps.Assignment, queries ...dsps.StreamID) bool {
	if invariant.Enabled {
		for _, p := range next.Provides {
			if !l.admitted[p.Stream] && !slices.Contains(queries, p.Stream) {
				invariant.Failf("%s: commit provides query %d at host %d, which is neither admitted nor committed", l.name, p.Stream, p.Host)
			}
		}
	}
	l.state = next
	all := true
	for _, q := range queries {
		if _, ok := next.Provider(q); ok {
			l.admitted[q] = true
		} else {
			delete(l.admitted, q)
			all = false
		}
	}
	return all
}

// SetAdmitted marks q admitted or not without touching the allocation. It
// is for the aggregate bound, which admits without placing; placing
// planners change admission through Commit and Remove.
func (l *Ledger) SetAdmitted(q dsps.StreamID, on bool) {
	if on {
		l.admitted[q] = true
	} else {
		delete(l.admitted, q)
	}
}

// GarbageCollect drops every operator and flow no provide rests on.
func (l *Ledger) GarbageCollect() { l.state.GarbageCollect(l.sys) }

// Remove withdraws an admitted query and garbage-collects what only it
// needed — the first half of the paper's adaptive replanning (§IV-B):
// "conceptually removing and re-adding queries".
func (l *Ledger) Remove(q dsps.StreamID) error {
	if err := CheckStream(l.sys, q); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	if !l.admitted[q] {
		return fmt.Errorf("%s: query %d: %w", l.name, q, ErrNotAdmitted)
	}
	delete(l.admitted, q)
	l.state.DeleteProvide(q)
	l.GarbageCollect()
	return nil
}

// ExportState snapshots the durable state (see StatePorter): allocation,
// admitted set and host availability. Everything else a planner holds is
// derived and rebuilds after an import.
func (l *Ledger) ExportState() State { return ExportedState(l.sys, l.state, l.admitted) }

// ImportState replaces the state with s (see StatePorter).
func (l *Ledger) ImportState(s State) error { return l.ImportStateIf(s, nil) }

// ImportStateIf is ImportState with a planner's own acceptance test, run on
// the incoming allocation under the incoming host states before anything
// else is replaced.
func (l *Ledger) ImportStateIf(s State, accept func(next *dsps.Assignment) error) error {
	if err := CheckState(l.sys, s); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	ApplyHostStates(l.sys, s.Hosts)
	next := s.Assignment.Clone()
	if accept != nil {
		if err := accept(next); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
	}
	l.state = next
	l.admitted = s.AdmittedSet()
	return nil
}

// Deadline returns the earlier of start+timeout and ctx's deadline; a zero
// timeout leaves ctx as the only bound, and the zero time means unbounded.
func Deadline(ctx context.Context, start time.Time, timeout time.Duration) time.Time {
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

// PlaceOne plans one fresh query for SubmitEach. It reports admission and,
// on rejection, the reason; it commits through the ledger only when it
// admits, and an error (ctx cancellation) aborts the whole call.
type PlaceOne func(ctx context.Context, q dsps.StreamID, cfg *SubmitConfig, deadline time.Time) (bool, Reason, error)

// SubmitEach is Submit for planners without a joint optimisation: q and
// its WithBatch companions are checked, then planned one after the other
// by one, skipping those already admitted (Algorithm 1, line 3). An error
// mid-batch restores the allocation and admitted set of before the call.
func (l *Ledger) SubmitEach(ctx context.Context, q dsps.StreamID, opts []SubmitOption, one PlaceOne) (Result, error) {
	ctx = OrBackground(ctx)
	start := time.Now()
	cfg := Apply(opts)
	qs := cfg.Queries(q)
	for _, query := range qs {
		if err := CheckStream(l.sys, query); err != nil {
			return Result{}, fmt.Errorf("%s: %w", l.name, err)
		}
	}
	deadline := Deadline(ctx, start, cfg.Timeout)

	// Allocations are swapped, never edited, while a call plans, so the
	// old pointer is a snapshot. A single query needs none at all: one
	// only errors before it commits.
	prevState := l.state
	var prevAdmitted map[dsps.StreamID]bool
	if len(qs) > 1 {
		prevAdmitted = maps.Clone(l.admitted)
	}

	var res Result
	res.Admitted = true
	for _, query := range qs {
		if l.admitted[query] {
			res.AlreadyAdmitted = true
			continue
		}
		ok, reason, err := one(ctx, query, &cfg, deadline)
		if err != nil {
			if prevAdmitted != nil {
				l.state, l.admitted = prevState, prevAdmitted
			}
			return Result{}, err
		}
		if !ok {
			res.Admitted = false
			res.Reason = reason
		}
	}
	res.PlanTime = time.Since(start)
	l.Record(res)
	return res, nil
}
