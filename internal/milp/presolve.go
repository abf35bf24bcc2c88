// Presolve: the once-per-Solve reduction pass of the tree-reduction layer.
// It operates on the compiled row image (the model's row matrix with
// mutable copies of its coefficients and right-hand sides, plus a bounds
// overlay) before the LP is emitted, so the model itself is never altered
// and every Solve starts from the caller's exact formulation.
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

// rowActivity returns the minimum and maximum of the row with the given
// terms over the overlay bounds of its variables, and the largest |a| on a
// free binary.
func (c *compiled) rowActivity(vars []int32, coefs []float64) (minAct, maxAct, big float64) {
	plo, phi, free := c.plo, c.phi, c.free
	for k, mi := range vars {
		a := coefs[k]
		lo, hi := plo[mi], phi[mi]
		if a > 0 {
			minAct += a * lo
			maxAct += a * hi
		} else {
			minAct += a * hi
			maxAct += a * lo
		}
		if free[mi] && math.Abs(a) > big {
			big = math.Abs(a)
		}
	}
	return minAct, maxAct, big
}

// indexVarRows builds the variable→rows index of the row image: the rows
// of model variable mi are vrows[vstart[mi]:vstart[mi+1]], in row order.
// Every row of a model holds each of its variables once with a nonzero
// coefficient, so the count of mi's rows is also where appear starts.
func (c *compiled) indexVarRows(nv, nr int) {
	start := c.m.rowStart
	vars := c.m.rowVar[:start[nr]]
	vstart := grow(c.vstart, nv+1)
	clear(vstart)
	for _, mi := range vars {
		vstart[mi]++
	}
	c.appear = append(grow(c.appear, nv)[:0], vstart[:nv]...)
	// vstart[mi] is the end of mi's rows here; filling backwards moves it
	// to their start.
	for mi := 1; mi <= nv; mi++ {
		vstart[mi] += vstart[mi-1]
	}
	vrows := grow(c.vrows, len(vars))
	for ri := nr - 1; ri >= 0; ri-- {
		for _, mi := range vars[start[ri]:start[ri+1]] {
			vstart[mi]--
			vrows[vstart[mi]] = int32(ri)
		}
	}
	c.vstart, c.vrows = vstart, vrows
}

// zeroed takes a term out of appear when tightening set its coefficient to
// na = 0.
func (c *compiled) zeroed(mi int32, na float64) {
	if na == 0 {
		c.appear[mi]--
	}
}

// drop marks row ri redundant and takes its terms out of appear.
func (c *compiled) drop(ri int, vars []int32, coefs []float64) {
	c.pskip[ri] = true
	c.presolveDropped++
	for k, mi := range vars {
		if coefs[k] != 0 {
			c.appear[mi]--
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
	c.queue = grow(c.queue, nr)
	c.queued = grow(c.queued, nr)
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
	// reductions: drop and the tightenings to zero kept it up to date.
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
			c.plo[mi] = c.phi[mi]
		} else {
			c.phi[mi] = c.plo[mi]
		}
		c.free[mi] = false
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
		for k := c.m.rowStart[ri]; k < c.m.rowStart[ri+1]; k++ {
			lhs += c.pcoef[k] * x[c.m.rowVar[k]]
			norm += math.Abs(c.pcoef[k])
		}
		rhs := c.prhs[ri]
		if !rowHolds(c.m.rowSense[ri], lhs, rhs, 1e-6*(1+math.Abs(rhs)+norm)) {
			invariant.Failf("milp: presolved row %s cuts off the warm start (lhs %g, rhs %g)",
				c.m.rowName[ri], lhs, rhs)
		}
	}
}

// settled reports that no fix or tightening of presolveRow can apply to a
// live row of the given activities, right-hand side and tolerance whose
// largest free-binary |a| is big. Each of them needs |a| above
// rhs+tol−minAct or maxAct−rhs+tol, whatever the sense; the margin keeps
// the answer clear of what rounding could move the row's tests by.
func settled(minAct, maxAct, rhs, tol, big float64) bool {
	return big < min(rhs+tol-minAct, maxAct-rhs+tol)-1e-9*(1+math.Abs(minAct)+math.Abs(maxAct)+math.Abs(rhs)+big)
}

// presolveRow applies the single-row reductions to row ri until none is
// left on it: a pass that fixes or tightens anything is followed by another
// over freshly computed activities. Every change it makes is counted in
// presolveFixed, presolveTightened or presolveDropped, and the variables it
// fixes are appended to c.moved.
func (c *compiled) presolveRow(ri int) error {
	lo, hi := c.m.rowStart[ri], c.m.rowStart[ri+1]
	vars, coefs := c.m.rowVar[lo:hi], c.pcoef[lo:hi]
	sense := c.m.rowSense[ri]
	for again := true; again; {
		again = false
		rhs := c.prhs[ri]
		minAct, maxAct, big := c.rowActivity(vars, coefs)
		tol := 1e-7 * (1 + math.Abs(rhs))

		// Infeasibility and redundancy over current bounds.
		switch sense {
		case LE:
			if minAct > rhs+tol {
				return errInfeasible
			}
			if maxAct <= rhs+tol {
				c.drop(ri, vars, coefs)
				return nil
			}
		case GE:
			if maxAct < rhs-tol {
				return errInfeasible
			}
			if minAct >= rhs-tol {
				c.drop(ri, vars, coefs)
				return nil
			}
		case EQ:
			if minAct > rhs+tol || maxAct < rhs-tol {
				return errInfeasible
			}
		}
		if settled(minAct, maxAct, rhs, tol, big) {
			return nil
		}

		for k, mi := range vars {
			a := coefs[k]
			if a == 0 || !c.free[mi] {
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
				c.free[mi] = false
				c.presolveFixed++
				c.moved = append(c.moved, mi)
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
						coefs[k] = a - delta
						rhs -= delta
						c.prhs[ri] = rhs
						maxAct -= delta // maxAct used x=1: shrink coef and rhs
						c.presolveTightened++
						again = true
					}
				} else if a < 0 && !math.IsInf(maxOthers, 1) {
					// x=1 side vacuous iff rhs-a >= maxOthers; raise a toward 0.
					if na := rhs - maxOthers; na > a+tol && na <= 0 {
						coefs[k] = na
						c.zeroed(mi, na)
						minAct += na - a // min contribution was a (at x=1)
						c.presolveTightened++
						again = true
					}
				}
			case GE:
				if a > 0 && !math.IsInf(minOthers, -1) {
					// x=1 side vacuous iff rhs-a <= minOthers; lower a toward 0.
					if na := rhs - minOthers; na < a-tol && na >= 0 {
						coefs[k] = na
						c.zeroed(mi, na)
						maxAct -= a - na // max contribution was a (at x=1)
						c.presolveTightened++
						again = true
					}
				} else if a < 0 && !math.IsInf(minOthers, -1) {
					// x=0 side vacuous iff rhs <= minOthers; pull both up.
					if delta := minOthers - rhs; delta > tol && delta < -a-tol {
						coefs[k] = a + delta
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
