package plan

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
)

// Ledger is the bookkeeping every planner keeps around its placement
// algorithm: the system, the current allocation, the admitted query set
// and the cumulative Stats. A planner embeds one and thereby implements
// the eight bookkeeping methods of QueryPlanner, StatePorter and
// DeltaRecorder; what is left in the planner's own package is how it
// places a query. The methods below are the only code that writes the
// allocation pointer or the admitted set, so an admitted query and its
// provide change together.
//
// Between calls the allocation is collected — GarbageCollect would delete
// nothing — and, for a planner that validates what it commits, valid. The
// per-request passes that look only at what a request touched rely on it
// (DESIGN.md, "The ledger invariant"); under sqprdebug every mutator
// asserts the first half.
type Ledger struct {
	name     string // error prefix, the planner's package name
	sys      *dsps.System
	state    *dsps.Assignment
	admitted []dsps.StreamID // ascending, without repeats
	stats    Stats
	changes  *changeRecord // what changed since the last TakeDelta; nil before the first
}

// changeRecord is what a Ledger records between two TakeDelta calls (an
// epoch): the allocation's change record, and the admitted set, host
// states and changed operator costs the epoch began with.
type changeRecord struct {
	touches  dsps.Touches
	admitted []dsps.StreamID
	hosts    []dsps.HostState
	costs    []OpCost
}

// NewLedger returns the empty ledger of a planner over sys (the initial
// solution of Algorithm 1, line 1).
func NewLedger(name string, sys *dsps.System) Ledger {
	return Ledger{
		name:  name,
		sys:   sys,
		state: dsps.NewAssignment(),
	}
}

// Assignment exposes the current allocation (do not mutate).
func (l *Ledger) Assignment() *dsps.Assignment { return l.state }

// Admitted reports whether query stream q is currently served.
func (l *Ledger) Admitted(q dsps.StreamID) bool {
	_, ok := slices.BinarySearch(l.admitted, q)
	return ok
}

// AdmittedCount returns the number of admitted queries.
func (l *Ledger) AdmittedCount() int { return len(l.admitted) }

// AdmittedQueries lists the admitted queries in ascending order.
func (l *Ledger) AdmittedQueries() []dsps.StreamID { return slices.Clone(l.admitted) }

// admit marks q admitted or not.
func (l *Ledger) admit(q dsps.StreamID, on bool) {
	i, ok := slices.BinarySearch(l.admitted, q)
	switch {
	case on && !ok:
		l.admitted = slices.Insert(l.admitted, i, q)
	case !on && ok:
		l.admitted = slices.Delete(l.admitted, i, i+1)
	}
}

// Stats returns cumulative planner telemetry.
func (l *Ledger) Stats() Stats { return l.stats }

// Record folds one planning call's outcome into the cumulative stats.
func (l *Ledger) Record(res Result) { l.stats.Record(res) }

// Commit installs next as the allocation and marks each of the given
// queries admitted exactly when next provides it. It reports whether next
// provides all of them. Every provide in next must be of an admitted query
// or of one of queries: a provide the admitted set does not count would
// hold bandwidth no Remove can release. next must be collected.
func (l *Ledger) Commit(next *dsps.Assignment, queries ...dsps.StreamID) bool {
	all := l.Stage(next, queries...)
	if invariant.Enabled {
		l.mustBeCollected("commit")
	}
	return all
}

// Stage is Commit for a repair in progress, whose allocation may keep
// support no provide rests on: the survivors of a failure, pinned so the
// re-plan can reuse them. The repair ends with GarbageCollect.
func (l *Ledger) Stage(next *dsps.Assignment, queries ...dsps.StreamID) bool {
	if invariant.Enabled {
		for _, p := range next.Provides {
			if !l.Admitted(p.Stream) && !slices.Contains(queries, p.Stream) {
				invariant.Failf("%s: commit provides query %d at host %d, which is neither admitted nor committed", l.name, p.Stream, p.Host)
			}
		}
	}
	next.Succeed(l.state)
	l.state = next
	all := true
	for _, q := range queries {
		_, ok := next.Provider(q)
		l.admit(q, ok)
		all = all && ok
	}
	return all
}

// SetAdmitted marks q admitted or not without touching the allocation. It
// is for the aggregate bound, which admits without placing; placing
// planners change admission through Commit and Remove.
func (l *Ledger) SetAdmitted(q dsps.StreamID, on bool) {
	l.admit(q, on)
	if invariant.Enabled {
		l.mustBeCollected("set-admitted")
	}
}

// GarbageCollect drops every operator and flow no provide rests on.
func (l *Ledger) GarbageCollect() {
	l.state.GarbageCollect(l.sys)
	if invariant.Enabled {
		l.mustBeCollected("garbage-collect")
	}
}

// Remove withdraws an admitted query and collects what only it needed —
// the first half of the paper's adaptive replanning (§IV-B): "conceptually
// removing and re-adding queries". The allocation is collected, so the
// collection walks the query's support and what shares it
// (dsps.WithdrawAndCollect), not the whole allocation.
func (l *Ledger) Remove(q dsps.StreamID) error {
	if err := CheckStream(l.sys, q); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	if !l.Admitted(q) {
		return fmt.Errorf("%s: query %d: %w", l.name, q, ErrNotAdmitted)
	}
	l.admit(q, false)
	var full *dsps.Assignment
	if invariant.Enabled {
		l.mustBeCollected("remove")
		full = l.state.Snapshot()
		full.DeleteProvide(q)
		full.GarbageCollect(l.sys)
	}
	l.state.WithdrawAndCollect(l.sys, q)
	if invariant.Enabled && !(slices.Equal(l.state.Provides, full.Provides) &&
		slices.Equal(l.state.Flows, full.Flows) && slices.Equal(l.state.Ops, full.Ops)) {
		invariant.Failf("%s: removing query %d left %d flows and %d placements, a full collection %d and %d",
			l.name, q, len(l.state.Flows), len(l.state.Ops), len(full.Flows), len(full.Ops))
	}
	return nil
}

// mustBeCollected is the checked-build assertion of the invariant the
// scoped passes rest on: a full collection of the allocation deletes
// nothing.
func (l *Ledger) mustBeCollected(after string) {
	c := l.state.Snapshot()
	c.GarbageCollect(l.sys)
	if len(c.Flows) != len(l.state.Flows) || len(c.Ops) != len(l.state.Ops) {
		invariant.Failf("%s: after %s the allocation holds %d flows and %d placements no provide rests on",
			l.name, after, len(l.state.Flows)-len(c.Flows), len(l.state.Ops)-len(c.Ops))
	}
}

// TakeDelta returns the delta from the state at the previous TakeDelta to
// the current one — the delta Diff gives for the two exports, to the byte —
// and opens the next epoch (see DeltaRecorder). The first call starts the
// recording and returns an empty delta; ImportState opens a fresh epoch at
// the imported state. The cost is what the epoch touched and one pass over
// the admitted set, the hosts and the operators whose cost SetCost changed.
func (l *Ledger) TakeDelta() Delta {
	j := l.changes
	if j == nil {
		l.changes = new(changeRecord)
		l.changes.begin(l)
		return Delta{}
	}
	c := j.touches.Take(l.state)
	d := Delta{
		ProvideSet: c.ProvideSet, ProvideDel: c.ProvideDel,
		FlowAdd: c.FlowAdd, FlowDel: c.FlowDel,
		OpAdd: c.OpAdd, OpDel: c.OpDel,
	}
	d.AdmitAdd, d.AdmitDel = dsps.DiffSorted(j.admitted, l.admitted, cmp.Compare[dsps.StreamID])
	j.admitted = append(j.admitted[:0], l.admitted...)
	for h := range l.sys.Hosts {
		if st := l.sys.Hosts[h].State; st != j.hosts[h] {
			d.Hosts = append(d.Hosts, HostChange{Host: dsps.HostID(h), State: st})
			j.hosts[h] = st
		}
	}
	costs := changedCosts(l.sys)
	var del []OpCost
	d.CostSet, del = dsps.DiffSorted(j.costs, costs, compareOpCosts)
	for _, c := range del {
		d.CostDel = append(d.CostDel, c.Op)
	}
	j.costs = costs
	return d
}

// begin opens a fresh epoch at l's current state.
func (j *changeRecord) begin(l *Ledger) {
	l.state.Track(&j.touches)
	j.admitted = append(j.admitted[:0], l.admitted...)
	j.hosts = hostStates(l.sys)
	j.costs = changedCosts(l.sys)
}

// ExportState snapshots the durable state (see StatePorter): allocation,
// admitted set, host availability and changed operator costs. Everything
// else a planner holds is derived and rebuilds after an import.
func (l *Ledger) ExportState() State { return ExportedState(l.sys, l.state, l.admitted) }

// ImportState replaces the state with s (see StatePorter).
func (l *Ledger) ImportState(s State) error { return l.ImportStateIf(s, nil) }

// ImportStateIf is ImportState with a planner's own acceptance test, run on
// the incoming allocation under the incoming host states and operator
// costs before anything else is replaced. The accepted allocation is
// collected: a state this package exported already is, so for a journal it
// wrote this changes nothing, and for any other it establishes the
// ledger's invariant.
func (l *Ledger) ImportStateIf(s State, accept func(next *dsps.Assignment) error) error {
	if err := CheckState(l.sys, s); err != nil {
		return fmt.Errorf("%s: %w", l.name, err)
	}
	ApplySystemState(l.sys, s)
	next := s.Assignment.Clone()
	if accept != nil {
		if err := accept(next); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
	}
	next.GarbageCollect(l.sys)
	l.state = next
	l.admitted = slices.Compact(slices.Sorted(slices.Values(s.Admitted)))
	if l.changes != nil {
		l.changes.begin(l)
	}
	if invariant.Enabled {
		l.mustBeCollected("import")
	}
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
// its WithBatch companions are checked (each must be a known, requested
// stream) before any is planned, then planned one after the other by
// one, skipping those already admitted (Algorithm 1, line 3). An error
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
		if !l.sys.Streams[query].Requested {
			return Result{}, fmt.Errorf("%s: stream %d: %w", l.name, query, ErrNotRequested)
		}
	}
	deadline := Deadline(ctx, start, cfg.Timeout)

	// Allocations are swapped, never edited, while a call plans, so the
	// old pointer is a snapshot. A single query needs none at all: one
	// only errors before it commits.
	prevState := l.state
	var prevAdmitted []dsps.StreamID
	if len(qs) > 1 {
		prevAdmitted = slices.Clone(l.admitted)
	}

	var res Result
	res.Admitted = true
	for _, query := range qs {
		if l.Admitted(query) {
			res.AlreadyAdmitted = true
			continue
		}
		ok, reason, err := one(ctx, query, &cfg, deadline)
		if err != nil {
			if len(qs) > 1 {
				prevState.Succeed(l.state)
				l.state, l.admitted = prevState, prevAdmitted
				if invariant.Enabled {
					l.mustBeCollected("rollback")
				}
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
