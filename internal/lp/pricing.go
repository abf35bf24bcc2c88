package lp

import "math"

// rebuild resets the logical basis to the slack basis over the active rows,
// folding the current variable fixes in as zero-width columns (at-upper
// fixes in complement orientation). Every row gets one slack column, and
// the slack of slot t is column nStruct+t: +1 for LE and EQ rows, −1 for GE
// rows, with an EQ row's slack zero-width so it never enters. Free columns
// start at 0, or with atUpper at their upper bound when their cost is
// negative. The factorization of this basis is diagonal (±1 singletons), so
// the follow-up refactorize cannot fail.
//
//sqpr:hotpath
func (s *Solver) rebuild(atUpper bool) {
	p := s.prob
	s.scanValid = false // cold rebuilds move the point arbitrarily
	for j := 0; j < s.colCap; j++ {
		s.upper[j] = math.Inf(1)
		s.baseU[j] = math.Inf(1)
		s.flipped[j] = false
		s.inBasis[j] = false
		s.rowOf[j] = -1
		s.d[j] = 0
	}
	for j := 0; j < s.nStruct; j++ {
		u := p.upper(j)
		s.baseU[j] = u
		switch s.fixVal[j] {
		case fixFree:
			s.upper[j] = u
			s.flipped[j] = atUpper && p.cost(j) < 0
		case fixZero:
			s.upper[j] = 0
		case fixUpper:
			s.upper[j] = 0
			s.flipped[j] = true
		}
	}
	// Assign slots densely over the active rows; rows activated warm later
	// take fresh slots at the then-current edge.
	for i := 0; i < s.mAll; i++ {
		s.rowSlot[i] = -1
	}
	slot := 0
	for i := 0; i < s.mAll; i++ {
		if !s.activeRows[i] {
			continue
		}
		c := &p.Cons[i]
		s.rowSlot[i] = int32(slot)
		s.slotRow[slot] = int32(i)
		s.slackCoef[slot] = 1
		col := s.nStruct + slot
		switch c.Sense {
		case GE:
			s.slackCoef[slot] = -1
		case EQ:
			s.upper[col] = 0
			s.baseU[col] = 0
		}
		rhs := c.RHS
		for _, tm := range c.Terms {
			if s.flipped[tm.Var] {
				rhs -= tm.Coef * s.baseU[tm.Var]
			}
		}
		s.beff[slot] = rhs
		s.basis[slot] = col
		s.inBasis[col] = true
		s.rowOf[col] = slot
		slot++
	}
	s.m = slot
	s.n = s.nStruct + slot
	s.factorValid = false
	s.xbValid = false
}

// coldPass solves from the slack basis over the active rows with the dual
// simplex alone. The slack basis prices every column at its cost, so with
// negative costs shifted to zero it is dual feasible from the start. Once
// the shifted problem is optimal the true costs come back: every boxed
// column whose reduced cost turned negative is bound-flipped and the dual
// simplex resumes. Should a slack, which has no upper bound to flip to, be
// left dual infeasible instead, the pass restarts once from the slack basis
// with each negative-cost column at its upper bound, a start that is dual
// feasible by construction. On success the solver is left at an optimal
// basis and marked warm.
func (s *Solver) coldPass() Status {
	if s.nStruct == 0 {
		if constRowsFeasible(s.prob) {
			return Optimal
		}
		return Infeasible
	}
	s.rebuild(false)
	s.shifted = true
	st := s.startDual()
	s.shifted = false
	if st == Optimal {
		s.computeDuals()
		flipped := true
		for j := 0; j < s.n && flipped; j++ {
			flipped = s.flipToDualFeasible(j)
		}
		if flipped {
			if !s.xbValid {
				s.ftranXB()
			}
			st = s.dualIterate()
		} else {
			s.rebuild(true)
			st = s.startDual()
		}
	}
	if st == stCold {
		st = IterLimit
	}
	s.warm = st == Optimal
	return st
}

// startDual factorizes the slack basis rebuild just installed and runs the
// dual simplex from it.
func (s *Solver) startDual() Status {
	if !s.refactorize() {
		return Infeasible // unreachable for the diagonal slack basis; fail closed
	}
	return s.dualIterate()
}

// flipToDualFeasible bound-flips nonbasic column j when its reduced cost
// prefers the opposite bound, leaving xB stale for the caller to refresh.
// It reports false when that bound is infinite, which only a slack's is.
//
//sqpr:hotpath
func (s *Solver) flipToDualFeasible(j int) bool {
	if s.inBasis[j] || s.upper[j] == 0 || s.d[j] >= -costTol {
		return true
	}
	if math.IsInf(s.upper[j], 1) {
		return false
	}
	s.toggleFlip(j)
	s.d[j] = -s.d[j]
	s.xbValid = false
	return true
}

// ftranCol computes alpha = B⁻¹·a_j for column j under the current
// orientation (the entering column's tableau image).
//
//sqpr:hotpath
func (s *Solver) ftranCol(j int, out []float64) {
	for i := 0; i < s.m; i++ {
		out[i] = 0
	}
	if j < s.nStruct {
		sign := 1.0
		if s.flipped[j] {
			sign = -1
		}
		for e := s.ccStart[j]; e < s.ccStart[j+1]; e++ {
			if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
				out[slot] += sign * s.ccCoef[e]
			}
		}
	} else {
		t := j - s.nStruct
		out[t] += s.slackCoef[t]
	}
	s.ftran(out)
}

// btranRow computes rho = B⁻ᵀ·e_r, the r-th row of the basis inverse.
//
//sqpr:hotpath
func (s *Solver) btranRow(r int) {
	for i := 0; i < s.m; i++ {
		s.rho[i] = 0
	}
	s.rho[r] = 1
	s.btran(s.rho)
}

// buildPivotRow expands rho into the sparse tableau pivot row
// accV[j] = rho·a_jᵉᶠᶠ over all live columns, expanding only the rows
// where rho is nonzero, in slot order. accTouch lists the touched columns;
// accMark round-stamps validity. Basic columns are skipped outright: every
// consumer of the row (the dual ratio test, the reduced-cost update,
// computeDuals) ignores them, and on dense-ish rows they are a sizable
// share of the touched set. A slack is touched only through its own slot,
// right after its row's terms.
//
//sqpr:hotpath
func (s *Solver) buildPivotRow() {
	s.accRound++
	round := s.accRound
	touch := s.accTouch[:0]
	for t := 0; t < s.m; t++ {
		rv := s.rho[t]
		if rv == 0 {
			continue
		}
		c := &s.prob.Cons[s.slotRow[t]]
		for _, tm := range c.Terms {
			if s.inBasis[tm.Var] {
				continue
			}
			a := tm.Coef
			if s.flipped[tm.Var] {
				a = -a
			}
			if s.accMark[tm.Var] != round {
				s.accMark[tm.Var] = round
				s.accV[tm.Var] = 0
				touch = append(touch, int32(tm.Var)) //sqpr:amortized
			}
			s.accV[tm.Var] += rv * a
		}
		if col := s.nStruct + t; !s.inBasis[col] {
			s.accMark[col] = round
			s.accV[col] = rv * s.slackCoef[t]
			touch = append(touch, int32(col)) //sqpr:amortized
		}
	}
	s.accTouch = touch
}

// dualIterate runs bounded-variable dual simplex pivots from a dual-
// feasible basis until primal feasibility (optimality), proven
// infeasibility, or a budget is exhausted. Two violation forms are handled:
// a basic variable below zero leaves directly; one above a positive upper
// bound is first re-oriented to its complement (flipBasic) so it, too,
// exits at zero. A basic variable above a zero-width bound (fixed
// variables, EQ slacks) pivots out directly — both of its bounds coincide
// at zero, so no re-orientation is needed or wanted. Zero-width columns
// never enter: their reduced costs may take either sign.
//
// The leaving row is the most violating one and the entering column the
// minimum ratio, ties going to the larger pivot. After 5(m+10) consecutive
// pivots whose dual step was zero, the loop switches to the least-index
// rule for the rest of the call: the violated basic variable of lowest
// column index leaves, and among minimum ratios the lowest column index
// enters, which cannot cycle.
//
//sqpr:hotpath
func (s *Solver) dualIterate() Status {
	const dualTol = 1e-7
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if s.iters%16 == 0 && s.expired() {
			return IterLimit
		}

		// Leaving row.
		r, above := -1, false
		viol := dualTol
		for i := 0; i < s.m; i++ {
			v, ab := -s.xB[i], false
			if w := s.xB[i] - s.upper[s.basis[i]]; w > v {
				v, ab = w, true
			}
			if v > viol && (!s.bland || r < 0 || s.basis[i] < s.basis[r]) {
				r, above = i, ab
				if !s.bland {
					viol = v
				}
			}
		}
		if r < 0 {
			return Optimal
		}
		if above && s.upper[s.basis[r]] > 0 {
			// Re-orient so the violation becomes "below zero" and the
			// leaving variable exits at what is now its zero bound.
			s.flipBasic(r)
			above = false
		}

		// Entering column: dual ratio test over the sparse pivot row. For
		// the below-zero form the candidates have a negative row
		// coefficient; for the zero-width above form, a positive one.
		s.btranRow(r)
		s.buildPivotRow()
		enter := -1
		best := math.Inf(1)
		for _, k32 := range s.accTouch {
			j := int(k32)
			if s.inBasis[j] || s.upper[j] == 0 {
				continue
			}
			a := s.accV[j]
			av := a
			if !above {
				av = -av
			}
			if av <= pivotTol {
				continue
			}
			// A negative d_j is drift; read as it is, it lets a tiny
			// pivot win on a negative ratio.
			ratio := max(s.d[j], 0) / av
			if ratio < best-ratioTol || (ratio < best+ratioTol && enter >= 0 &&
				(s.bland && j < enter || !s.bland && math.Abs(a) > math.Abs(s.accV[enter]))) {
				best = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible
		}
		s.ftranCol(enter, s.alpha)
		st := s.driftGate(r, enter)
		if st == stRetry {
			continue
		}
		if st != 0 {
			return st
		}
		s.pivotCommit(r, enter)
		if st := s.maybeRefactor(); st != 0 {
			return st
		}
		s.iters++
		if best >= ratioTol {
			s.stall = 0
		} else if s.stall++; s.stall > 5*(s.m+10) {
			s.bland = true
		}
	}
}

// driftGate cross-checks the pivot element computed two independent ways —
// alpha[r] through FTRAN and accV[j] through BTRAN plus the row expansion —
// before committing a pivot. Disagreement (or a vanishing pivot) means the
// factorization has drifted: refactorize and retry the iteration, up to a
// per-solve budget, then fall back cold. Requires btranRow(r) and
// buildPivotRow to be current for row r.
//
//sqpr:hotpath
func (s *Solver) driftGate(r, j int) Status {
	rowv := 0.0
	if s.accMark[j] == s.accRound {
		rowv = s.accV[j]
	}
	piv := s.alpha[r]
	if math.Abs(rowv-piv) > driftCheckTol*(1+math.Abs(piv)) || math.Abs(piv) <= pivotTol {
		if s.driftTries < maxDriftTries {
			s.driftTries++
			s.stats.DriftRebuilds++
			if !s.refactorize() {
				return stCold
			}
			return stRetry
		}
		if math.Abs(piv) <= pivotTol {
			return stCold
		}
	}
	return 0
}

// pivotCommit makes column j basic in row r: reduced costs update along the
// sparse pivot row, then one pass over alpha records the column eta of the
// basis change and moves the basic solution by the entering step. Requires
// alpha = B⁻¹a_j and the pivot row (accV/accTouch) for row r.
//
//sqpr:hotpath
func (s *Solver) pivotCommit(r, j int) {
	piv := s.alpha[r]
	f := s.d[j] / piv
	if f != 0 {
		for _, k32 := range s.accTouch {
			k := int(k32)
			if s.inBasis[k] || k == j {
				continue
			}
			s.d[k] -= f * s.accV[k]
		}
	}
	old := s.basis[r]
	s.inBasis[old] = false
	s.rowOf[old] = -1
	s.basis[r] = j
	s.inBasis[j] = true
	s.rowOf[j] = r
	// The old basic column's tableau coefficient in row r is 1, so its new
	// reduced cost is −f; the entering column's becomes 0 by construction.
	s.d[old] = -f
	s.d[j] = 0

	// The eta's entries are alpha off row r; applying it to xB in place,
	// the entering variable takes the ratio-test step and every other basic
	// value moves along alpha. The eta arenas are preallocated by init and
	// reused across solves.
	e := &s.eta
	vr := s.xB[r] / piv
	for i := 0; i < s.m; i++ {
		av := s.alpha[i]
		if av == 0 || i == r {
			continue
		}
		e.idx = append(e.idx, int32(i)) //sqpr:amortized
		e.val = append(e.val, av)       //sqpr:amortized
		s.xB[i] -= av * vr
		if s.xB[i] < 0 && s.xB[i] > -1e-11 {
			s.xB[i] = 0
		}
	}
	e.close(r, piv, false)
	s.noteEta()
	s.xB[r] = vr
	if vr < 0 && vr > -1e-11 {
		s.xB[r] = 0
	}
}

// maybeRefactor refactorizes on schedule once the eta file reaches the
// configured interval; returns stCold when the refactorize fails.
//
//sqpr:hotpath
func (s *Solver) maybeRefactor() Status {
	if s.eta.count < s.etaLimit() {
		return 0
	}
	if !s.refactorize() {
		return stCold
	}
	return 0
}

// toggleFlip re-orients nonbasic structural column j (x ↔ u − x̄),
// maintaining the effective right-hand sides of every active row the
// column appears in. The caller owns the companion reduced-cost negation
// and xB refresh.
//
//sqpr:hotpath
func (s *Solver) toggleFlip(j int) {
	u := s.baseU[j]
	delta := -u
	if s.flipped[j] {
		delta = u
	}
	s.flipped[j] = !s.flipped[j]
	for e := s.ccStart[j]; e < s.ccStart[j+1]; e++ {
		if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
			s.beff[slot] += delta * s.ccCoef[e]
		}
	}
}

// flipBasic re-orients the basic variable of row r. The basis matrix's
// column for row r is negated, recorded as a negation eta so the factors
// stay exact; the reduced costs are untouched (negating a basis column and
// its cost leaves y = B⁻ᵀc_B, and with it every d_j, unchanged).
//
//sqpr:hotpath
func (s *Solver) flipBasic(r int) {
	b := s.basis[r]
	u := s.baseU[b]
	s.toggleFlip(b)
	s.eta.appendNeg(r)
	s.noteEta()
	if s.xbValid {
		s.xB[r] = u - s.xB[r]
	}
}
