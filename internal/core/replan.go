package core

import (
	"context"
	"fmt"
	"math"

	"sqpr/internal/dsps"
)

// ReplanError reports a Replan interrupted by a mid-loop Submit failure.
// Every query that had been removed but not yet successfully re-planned is
// restored with a best-effort fresh submission; the ones that could not be
// restored are listed in Unrestored, so callers always learn the true
// admission state instead of silently losing queries.
type ReplanError struct {
	// Cause is the Submit error that interrupted the replan loop.
	Cause error
	// Unrestored lists the previously admitted queries that are no longer
	// admitted after the restoration attempt.
	Unrestored []dsps.StreamID
}

// Error implements error.
func (e *ReplanError) Error() string {
	if len(e.Unrestored) == 0 {
		return fmt.Sprintf("core: replan interrupted (all removed queries restored): %v", e.Cause)
	}
	return fmt.Sprintf("core: replan interrupted, %d queries unrestored %v: %v", len(e.Unrestored), e.Unrestored, e.Cause)
}

// Unwrap exposes the interrupting Submit error to errors.Is/As.
func (e *ReplanError) Unwrap() error { return e.Cause }

// Replan removes the given admitted queries and re-submits them one by one
// (§IV-B): queries whose observed resource consumption drifted from the
// planning estimates, or that suffer from a host resource shortage, get
// fresh placements. Returns the per-query results in order.
//
// If a Submit fails mid-loop, the queries that were removed but not yet
// re-planned are not stranded: each is restored with a fresh submission
// (under a background context, since the original ctx may be the reason for
// the failure), and the call returns a *ReplanError listing any query that
// could not be restored alongside the partial results.
func (p *Planner) Replan(ctx context.Context, queries []dsps.StreamID) ([]Result, error) {
	removed := make([]dsps.StreamID, 0, len(queries))
	pending := make(map[dsps.StreamID]bool, len(queries))
	for _, q := range queries {
		if p.Admitted(q) {
			if err := p.Remove(q); err != nil {
				return nil, err
			}
			removed = append(removed, q)
			pending[q] = true
		}
	}
	results := make([]Result, 0, len(queries))
	for _, q := range queries {
		r, err := p.Submit(ctx, q)
		if err != nil {
			re := &ReplanError{Cause: err}
			for _, rq := range removed {
				if !pending[rq] || p.Admitted(rq) {
					continue
				}
				//sqpr:ctxroot restoration must outlive the caller's ctx, which may be the cancellation that caused the failure
				if res, rerr := p.Submit(context.Background(), rq); rerr != nil || !res.Admitted {
					re.Unrestored = append(re.Unrestored, rq)
				}
			}
			return results, re
		}
		// A completed (even if rejecting) submission is this query's fair
		// re-planning shot; it no longer counts as stranded.
		delete(pending, q)
		results = append(results, r)
	}
	return results, nil
}

// driftEps is the absolute observation floor below which a measurement on a
// zero-cost operator is treated as monitoring noise, not drift.
const driftEps = 1e-9

// DriftedQueries compares observed operator costs with the cost model and
// returns the admitted queries whose supporting operators drifted by more
// than threshold (relative). observed maps operator to measured cost.
// Observations for operators outside the system's operator table are
// ignored, and a zero-cost operator observed at (effectively) zero cost is
// not drift.
func (p *Planner) DriftedQueries(observed map[dsps.OperatorID]float64, threshold float64) []dsps.StreamID {
	drifted := make([]bool, len(p.sys.Operators))
	for op, got := range observed {
		if int(op) < 0 || int(op) >= len(p.sys.Operators) {
			continue
		}
		if want := p.sys.Operators[op].Cost; want == 0 {
			drifted[op] = got > driftEps
		} else {
			drifted[op] = math.Abs((got-want)/want) > threshold
		}
	}
	// A query drifted if the walk over its support stops at a drifted
	// operator.
	var out []dsps.StreamID
	seen := dsps.GetStamps(p.sys)
	defer seen.Release()
	stable := func(pl dsps.Placement) bool { return !drifted[pl.Op] }
	st := p.Assignment()
	for _, q := range p.AdmittedQueries() {
		seen.Next()
		if h, ok := st.Provider(q); ok && !st.WalkSupport(p.sys, h, q, seen, stable, nil) {
			out = append(out, q)
		}
	}
	return out
}
