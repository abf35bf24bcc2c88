// Presolve: the once-per-Solve reduction pass of the tree-reduction layer.
// It operates on the compiled row image (a mutable, term-accumulated copy of
// the model rows plus a bounds overlay) before the LP is emitted, so the
// model itself is never altered and every Solve starts from the caller's
// exact formulation.
//
// Three families of single-row reductions run to a fixpoint:
//
//   - Activity-based fixing: a binary whose 0 or 1 setting cannot be
//     completed to a row-feasible point is fixed at the other value. On
//     SQPR models this is what eliminates placement variables forced out by
//     residual host budgets (an operator whose CPU cost exceeds a host's
//     remaining capacity, a flow whose rate exceeds remaining bandwidth).
//
//   - Coefficient tightening: for an inequality row with a binary term, the
//     pair (coefficient, RHS) is shifted so the non-binding side of the
//     branch becomes exactly vacuous. Integer solutions are untouched while
//     the LP relaxation shrinks, which is where fractional root solutions —
//     and therefore branching — come from. Applied repeatedly this derives
//     small cover-like facets directly inside the budget rows.
//
//   - Redundant-row removal: rows that every point within bounds satisfies
//     are dropped, and variables left with no live row are fixed at their
//     objective-preferred bound (dominated placement columns: a variable
//     whose every constraint went redundant cannot improve the objective at
//     any other value).
//
// The fixpoint is reached by a worklist rather than by repeated sweeps:
// every row is visited once in row order and re-applied until nothing is
// left on it, and a row is queued again only when another row's visit fixed
// one of its variables. Tightening and dropping a row change no variable's
// bounds, so no other row can gain a reduction from them.
package milp

import (
	"math"

	"sqpr/internal/invariant"
)

// rowActivity returns the minimum and maximum of a·x over the overlay
// bounds of the row's variables.
func (c *compiled) rowActivity(ri int) (minAct, maxAct float64) {
	for _, t := range c.pterms[c.pstart[ri]:c.pstart[ri+1]] {
		mi := int(t.Var)
		lo, hi := c.plo[mi], c.phi[mi]
		if t.Coef > 0 {
			minAct += t.Coef * lo
			maxAct += t.Coef * hi
		} else {
			minAct += t.Coef * hi
			maxAct += t.Coef * lo
		}
	}
	return minAct, maxAct
}

// freeBinary reports whether model variable mi is a binary still free under
// the overlay bounds (exactly {0,1}).
func (c *compiled) freeBinary(mi int) bool {
	return c.m.vars[mi].typ == Binary && c.plo[mi] == 0 && c.phi[mi] == 1
}

// indexVarRows builds the variable→rows index of the row image: the rows
// of model variable mi are vrows[vstart[mi]:vstart[mi+1]], in row order.
func (c *compiled) indexVarRows(nv, nr int) {
	c.vstart = growInt32s(c.vstart, nv+1)
	clear(c.vstart)
	for _, t := range c.pterms {
		c.vstart[t.Var]++
	}
	// vstart[mi] is the end of mi's rows here; filling backwards moves it
	// to their start.
	for mi := 1; mi <= nv; mi++ {
		c.vstart[mi] += c.vstart[mi-1]
	}
	c.vrows = growInt32s(c.vrows, len(c.pterms))
	for ri := nr - 1; ri >= 0; ri-- {
		for _, t := range c.pterms[c.pstart[ri]:c.pstart[ri+1]] {
			c.vstart[t.Var]--
			c.vrows[c.vstart[t.Var]] = int32(ri)
		}
	}
}

// runPresolve tightens the row image in place to the fixpoint of the
// single-row reductions, then fixes dominated columns; returns errInfeasible
// when a row is proven unsatisfiable over the bounds. A row visit costs its
// length per pass, so the worklist costs O(nnz + revisits). Checked builds
// assert that the fixpoint keeps witness, a point feasible for the model,
// when one is given.
func (c *compiled) runPresolve(witness []float64) error {
	nv := len(c.m.vars)
	nr := len(c.prhs)
	c.indexVarRows(nv, nr)

	// The queue is a ring of nr slots: a row is in it at most once. Only
	// its own visit drops a row, so a row in the queue is live.
	c.queue = growInt32s(c.queue, nr)
	c.queued = growBools(c.queued, nr)
	for ri := 0; ri < nr; ri++ {
		c.queue[ri] = int32(ri)
		c.queued[ri] = true
	}
	head, n := 0, nr
	for n > 0 {
		ri := int(c.queue[head])
		head = (head + 1) % nr
		n--
		c.queued[ri] = false
		c.moved = c.moved[:0]
		if err := c.presolveRow(ri); err != nil {
			return err
		}
		for _, mi := range c.moved {
			for _, r := range c.vrows[c.vstart[mi]:c.vstart[mi+1]] {
				if int(r) == ri || c.pskip[r] || c.queued[r] {
					continue
				}
				c.queue[(head+n)%nr] = r
				c.queued[r] = true
				n++
			}
		}
	}

	if invariant.Enabled && witness != nil {
		c.mustKeep(witness)
	}

	// Unconstrained columns: fix at the objective-preferred bound. This
	// keeps an optimum, not every feasible point, so it comes after the
	// witness check. appear counts live-row appearances after all row
	// reductions.
	c.appear = growInt32s(c.appear, nv)
	clear(c.appear)
	for ri := 0; ri < nr; ri++ {
		if c.pskip[ri] {
			continue
		}
		for _, t := range c.pterms[c.pstart[ri]:c.pstart[ri+1]] {
			if t.Coef != 0 {
				c.appear[t.Var]++
			}
		}
	}
	for mi := 0; mi < nv; mi++ {
		if c.appear[mi] > 0 || c.phi[mi]-c.plo[mi] <= 1e-12 {
			continue
		}
		v := &c.m.vars[mi]
		// Model-direction improvement: maximise wants positive-objective
		// variables high, minimise wants them low.
		wantHigh := v.obj > 0
		if !c.m.maximize {
			wantHigh = v.obj < 0
		}
		if wantHigh {
			if math.IsInf(c.phi[mi], 1) {
				continue // unbounded improving ray; leave for the LP
			}
			c.plo[mi] = c.phi[mi]
		} else {
			c.phi[mi] = c.plo[mi]
		}
		c.presolveFixed++
	}
	return nil
}

// mustKeep fails a checked build when the presolved bounds or a live
// presolved row cut off x. Coefficient tightening moves a row's activity
// at a point off {0,1} by at most the binaries' distance from it times the
// coefficient change, hence the row-norm term in the tolerance.
func (c *compiled) mustKeep(x []float64) {
	for mi := range c.m.vars {
		if x[mi] < c.plo[mi]-1e-6 || x[mi] > c.phi[mi]+1e-6 {
			invariant.Failf("milp: presolve bounds [%g, %g] cut off the warm start's %s = %g",
				c.plo[mi], c.phi[mi], c.m.vars[mi].name, x[mi])
		}
	}
	for ri := range c.prhs {
		if c.pskip[ri] {
			continue
		}
		var lhs, norm float64
		for _, t := range c.pterms[c.pstart[ri]:c.pstart[ri+1]] {
			lhs += t.Coef * x[t.Var]
			norm += math.Abs(t.Coef)
		}
		rhs := c.prhs[ri]
		if !rowHolds(c.psense[ri], lhs, rhs, 1e-6*(1+math.Abs(rhs)+norm)) {
			invariant.Failf("milp: presolved row %s cuts off the warm start (lhs %g, rhs %g)",
				c.m.rows[ri].name, lhs, rhs)
		}
	}
}

// presolveRow applies the single-row reductions to row ri until none is
// left on it: a pass that fixes or tightens anything is followed by another
// over freshly computed activities. Every change it makes is counted in
// presolveFixed, presolveTightened or presolveDropped, and the variables it
// fixes are appended to c.moved.
func (c *compiled) presolveRow(ri int) error {
	for again := true; again; {
		again = false
		sense := c.psense[ri]
		rhs := c.prhs[ri]
		minAct, maxAct := c.rowActivity(ri)
		tol := 1e-7 * (1 + math.Abs(rhs))

		// Infeasibility and redundancy over current bounds.
		switch sense {
		case LE:
			if minAct > rhs+tol {
				return errInfeasible
			}
			if maxAct <= rhs+tol {
				c.pskip[ri] = true
				c.presolveDropped++
				return nil
			}
		case GE:
			if maxAct < rhs-tol {
				return errInfeasible
			}
			if minAct >= rhs-tol {
				c.pskip[ri] = true
				c.presolveDropped++
				return nil
			}
		case EQ:
			if minAct > rhs+tol || maxAct < rhs-tol {
				return errInfeasible
			}
		}

		terms := c.pterms[c.pstart[ri]:c.pstart[ri+1]]
		for i := range terms {
			t := &terms[i]
			mi := int(t.Var)
			a := t.Coef
			if a == 0 || !c.freeBinary(mi) {
				continue
			}
			// Activity of the row without this variable's extreme contribution.
			var minOthers, maxOthers float64
			if a > 0 {
				minOthers, maxOthers = minAct, maxAct-a
			} else {
				minOthers, maxOthers = minAct-a, maxAct
			}

			// Forbid values that cannot be completed within the row.
			forbid0 := false
			forbid1 := false
			switch sense {
			case LE:
				forbid0 = minOthers > rhs+tol
				forbid1 = minOthers+a > rhs+tol
			case GE:
				forbid0 = maxOthers < rhs-tol
				forbid1 = maxOthers+a < rhs-tol
			case EQ:
				forbid0 = minOthers > rhs+tol || maxOthers < rhs-tol
				forbid1 = minOthers+a > rhs+tol || maxOthers+a < rhs-tol
			}
			if forbid0 && forbid1 {
				return errInfeasible
			}
			if forbid0 || forbid1 {
				// The fixed term's contribution collapses to its value, so
				// the activities patch by the side it leaves.
				if forbid0 {
					c.plo[mi] = 1
					if a > 0 {
						minAct += a
					} else {
						maxAct += a
					}
				} else {
					c.phi[mi] = 0
					if a > 0 {
						maxAct -= a
					} else {
						minAct -= a
					}
				}
				c.presolveFixed++
				c.moved = append(c.moved, int32(mi))
				again = true
				continue
			}

			// Coefficient tightening (inequalities only): shift (a, rhs) so the
			// branch side that is vacuous over the bounds becomes exactly tight.
			switch sense {
			case LE:
				if a > 0 && !math.IsInf(maxOthers, 1) {
					// x=0 side vacuous iff maxOthers <= rhs; pull both down.
					if delta := rhs - maxOthers; delta > tol && delta < a-tol {
						t.Coef = a - delta
						rhs -= delta
						c.prhs[ri] = rhs
						maxAct -= delta // maxAct used x=1: shrink coef and rhs
						c.presolveTightened++
						again = true
					}
				} else if a < 0 && !math.IsInf(maxOthers, 1) {
					// x=1 side vacuous iff rhs-a >= maxOthers; raise a toward 0.
					if na := rhs - maxOthers; na > a+tol && na <= 0 {
						t.Coef = na
						minAct += na - a // min contribution was a (at x=1)
						c.presolveTightened++
						again = true
					}
				}
			case GE:
				if a > 0 && !math.IsInf(minOthers, -1) {
					// x=1 side vacuous iff rhs-a <= minOthers; lower a toward 0.
					if na := rhs - minOthers; na < a-tol && na >= 0 {
						t.Coef = na
						maxAct -= a - na // max contribution was a (at x=1)
						c.presolveTightened++
						again = true
					}
				} else if a < 0 && !math.IsInf(minOthers, -1) {
					// x=0 side vacuous iff rhs <= minOthers; pull both up.
					if delta := minOthers - rhs; delta > tol && delta < -a-tol {
						t.Coef = a + delta
						rhs += delta
						c.prhs[ri] = rhs
						minAct += delta // minAct used x=1: both rise together
						c.presolveTightened++
						again = true
					}
				}
			}
		}
	}
	return nil
}
