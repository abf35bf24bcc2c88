package lp

import "math"

// candidateMax bounds the pricing candidate list: a refill scan collects at
// most this many eligible columns before pivoting resumes, so Dantzig-style
// most-negative selection runs over a short list instead of every column.
const candidateMax = 64

// rebuild resets the logical basis to the slack/artificial start over the
// active rows, folding the current variable fixes in as zero-width columns
// (at-upper fixes in complement orientation). The factorization of this
// start basis is diagonal (±1 singletons), so the follow-up refactorize
// cannot fail.
//
//sqpr:hotpath
func (s *Solver) rebuild() {
	p := s.prob
	s.scanValid = false // cold rebuilds move the point arbitrarily
	for j := 0; j < s.colCap; j++ {
		s.upper[j] = math.Inf(1)
		s.baseU[j] = math.Inf(1)
		s.flipped[j] = false
		s.banned[j] = false
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
		case fixZero:
			s.upper[j] = 0
			s.banned[j] = true
		case fixUpper:
			s.upper[j] = 0
			s.banned[j] = true
			s.flipped[j] = true
		}
	}
	// Assign slots and slack columns densely over the active rows; rows
	// activated warm later take fresh slots at the then-current edge.
	for i := 0; i < s.mAll; i++ {
		s.rowSlot[i] = -1
		s.slackOf[i] = -1
	}
	slot := 0
	naux := 0
	for i := 0; i < s.mAll; i++ {
		if !s.activeRows[i] {
			continue
		}
		s.rowSlot[i] = int32(slot)
		s.slotRow[slot] = int32(i)
		if p.Cons[i].Sense != EQ {
			col := s.nStruct + naux
			s.slackOf[i] = int32(col)
			s.auxSlot[naux] = int32(slot)
			s.auxIsArt[naux] = false
			if p.Cons[i].Sense == LE {
				s.auxCoef[naux] = 1
			} else {
				s.auxCoef[naux] = -1
			}
			naux++
		}
		slot++
	}
	s.m = slot
	s.nArtStart = s.nStruct + naux

	// Effective right-hand sides under the fix orientation.
	for t := 0; t < s.m; t++ {
		c := &p.Cons[s.slotRow[t]]
		rhs := c.RHS
		for _, tm := range c.Terms {
			if s.flipped[tm.Var] {
				rhs -= tm.Coef * s.baseU[tm.Var]
			}
		}
		s.beff[t] = rhs
	}

	// Starting basis: a row's slack is basic when it starts feasible at the
	// origin of the current orientation (LE with beff >= 0, or GE with
	// beff < 0, where the −1 slack coefficient makes the slack value
	// positive); an artificial signed to keep its value non-negative covers
	// every other row.
	for t := 0; t < s.m; t++ {
		i := int(s.slotRow[t])
		c := &p.Cons[i]
		sl := s.slackOf[i]
		if sl >= 0 && ((c.Sense == LE && s.beff[t] >= 0) || (c.Sense == GE && s.beff[t] < 0)) {
			s.basis[t] = int(sl)
			continue
		}
		col := s.nStruct + naux
		s.auxSlot[naux] = int32(t)
		s.auxIsArt[naux] = true
		if s.beff[t] >= 0 {
			s.auxCoef[naux] = 1
		} else {
			s.auxCoef[naux] = -1
		}
		naux++
		s.basis[t] = col
	}
	s.n = s.nStruct + naux
	for t := 0; t < s.m; t++ {
		b := s.basis[t]
		s.inBasis[b] = true
		s.rowOf[b] = t
	}
	s.factorValid = false
	s.xbValid = false
	s.candPos = 0
	s.cand = s.cand[:0]
}

// coldPass rebuilds the basis from the problem plus current fixes over the
// active row set and runs the two-phase primal simplex through the
// factorization. On success the solver is left at an optimal basis and
// marked warm.
func (s *Solver) coldPass() Status {
	if s.nStruct == 0 {
		if constRowsFeasible(s.prob) {
			return Optimal
		}
		return Infeasible
	}
	s.rebuild()
	hasArt := s.n > s.nArtStart
	s.phase1 = hasArt
	if !s.refactorize() {
		// Unreachable for the diagonal start basis; fail closed.
		s.phase1 = false
		return Infeasible
	}

	if hasArt {
		st := s.iterate()
		if st == IterLimit || st == stCold {
			s.phase1 = false
			return IterLimit
		}
		if s.phase1Value() > zeroTol*float64(1+s.m) {
			s.phase1 = false
			return Infeasible
		}
		s.driveOutArtificials()
		for j := s.nArtStart; j < s.n; j++ {
			if s.auxIsArt[j-s.nStruct] {
				s.banned[j] = true
			}
		}
		s.phase1 = false
		s.computeDuals()
	}

	st := s.iterate()
	if st == stCold {
		st = IterLimit
	}
	if st == Optimal || st == IterLimit {
		// Pin artificials at zero so the dual simplex treats any later
		// drift on redundant rows as a violation to repair.
		for j := s.nArtStart; j < s.n; j++ {
			if s.auxIsArt[j-s.nStruct] {
				s.upper[j] = 0
			}
		}
	}
	s.warm = st == Optimal
	return st
}

// phase1Value returns the current sum of artificial variable values.
func (s *Solver) phase1Value() float64 {
	var sum float64
	for t, b := range s.basis[:s.m] {
		if b >= s.nStruct && s.auxIsArt[b-s.nStruct] {
			sum += s.xB[t]
		}
	}
	return sum
}

// driveOutArtificials pivots zero-valued basic artificials onto structural
// columns where possible, leaving redundant rows with a basic artificial
// pinned at zero. Banned (fixed) columns are never pivoted in: a fixed
// variable entering the basis could later drift off its pinned value.
func (s *Solver) driveOutArtificials() {
	for r := 0; r < s.m; r++ {
		b := s.basis[r]
		if b < s.nStruct || !s.auxIsArt[b-s.nStruct] {
			continue
		}
		s.btranRow(r)
		s.buildPivotRow()
		pivotCol := -1
		for _, k32 := range s.accTouch {
			k := int(k32)
			if k >= s.nArtStart {
				continue
			}
			if s.inBasis[k] || s.banned[k] {
				continue
			}
			if math.Abs(s.accV[k]) > 1e-7 && (pivotCol < 0 || k < pivotCol) {
				pivotCol = k
			}
		}
		if pivotCol < 0 {
			continue
		}
		s.ftranCol(pivotCol, s.alpha)
		if math.Abs(s.alpha[r]) <= pivotTol {
			continue
		}
		s.pivotCommit(r, pivotCol)
		if s.eta.count >= s.etaLimit() && !s.refactorize() {
			return
		}
	}
}

// iterate runs primal simplex iterations until optimality, unboundedness or
// a budget is exhausted.
//
//sqpr:hotpath
func (s *Solver) iterate() Status {
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if s.iters%16 == 0 && s.expired() {
			return IterLimit
		}
		j := s.chooseEntering()
		if j < 0 {
			return Optimal
		}
		st := s.step(j)
		if st == stRetry {
			continue // drift-triggered refactorize; re-price and retry
		}
		if st != 0 {
			return st
		}
		s.iters++
	}
}

// chooseEntering selects a nonbasic column with negative reduced cost:
// most-negative within the rotating candidate list normally (partial
// pricing), and Bland's first-eligible full scan once degeneracy stalls.
// Optimality is only ever declared after a refill scanned every column.
//
//sqpr:hotpath
func (s *Solver) chooseEntering() int {
	if s.bland {
		for j := 0; j < s.n; j++ {
			if !s.inBasis[j] && !s.banned[j] && s.d[j] < -costTol {
				return j
			}
		}
		return -1
	}
	//sqpr:noctx bounded: ends on a candidate hit or one full fruitless pricing wrap
	for {
		best, bestVal := -1, -costTol
		live := s.cand[:0]
		for _, j32 := range s.cand {
			j := int(j32)
			if s.inBasis[j] || s.banned[j] || s.d[j] >= -costTol {
				continue // stale candidate: entered the basis or repriced
			}
			live = append(live, j32) //sqpr:amortized — in-place compaction
			if s.d[j] < bestVal {
				bestVal, best = s.d[j], j
			}
		}
		s.cand = live
		if best >= 0 {
			return best
		}
		if !s.priceRefill() {
			return -1
		}
	}
}

// priceRefill scans from the rotating cursor for up to candidateMax
// eligible columns, wrapping at most once over all n columns; reports
// whether any candidate was found. Only called with an empty list, so a
// full fruitless wrap is a proof of optimality.
//
//sqpr:hotpath
func (s *Solver) priceRefill() bool {
	n := s.n
	if n == 0 {
		return false
	}
	if s.candPos >= n {
		s.candPos = 0
	}
	found := 0
	for scanned := 0; scanned < n && found < candidateMax; scanned++ {
		j := s.candPos
		s.candPos++
		if s.candPos >= n {
			s.candPos = 0
		}
		if s.inBasis[j] || s.banned[j] {
			continue
		}
		if s.d[j] < -costTol {
			s.cand = append(s.cand, int32(j)) //sqpr:amortized — cap colCap from Load
			found++
		}
	}
	return found > 0
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
		aux := j - s.nStruct
		out[s.auxSlot[aux]] += s.auxCoef[aux]
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
// accV[j] = rho·a_jᵉᶠᶠ over all live columns, touching only columns of
// rows where rho is nonzero. accTouch lists the touched columns; accMark
// round-stamps validity. Basic columns are skipped outright: every consumer
// of the row (dual ratio test, reduced-cost update, artificial drive-out)
// ignores them, and on dense-ish rows they are a sizable share of the
// touched set.
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
	}
	naux := s.n - s.nStruct
	for a := 0; a < naux; a++ {
		rv := s.rho[s.auxSlot[a]]
		if rv == 0 {
			continue
		}
		col := s.nStruct + a
		if s.inBasis[col] {
			continue
		}
		if s.accMark[col] != round {
			s.accMark[col] = round
			s.accV[col] = 0
			touch = append(touch, int32(col)) //sqpr:amortized
		}
		s.accV[col] += rv * s.auxCoef[a]
	}
	s.accTouch = touch
}

// step performs the ratio test for entering column j and either flips the
// variable to its opposite bound or pivots it into the basis. Returns 0 on
// success, Unbounded if the entering direction is unbounded, stRetry after
// a drift-triggered refactorize, stCold if a refactorize failed.
//
//sqpr:hotpath
func (s *Solver) step(j int) Status {
	s.ftranCol(j, s.alpha)
	alpha := s.alpha
	tmax := s.upper[j]
	leave := -1
	leaveAtUpper := false
	apiv := 0.0
	for i := 0; i < s.m; i++ {
		a := alpha[i]
		if a > pivotTol {
			lim := s.xB[i] / a
			if lim < tmax-ratioTol || (lim < tmax+ratioTol && leave >= 0 && math.Abs(a) > math.Abs(apiv)) {
				tmax, leave, leaveAtUpper, apiv = lim, i, false, a
			}
		} else if a < -pivotTol {
			ub := s.upper[s.basis[i]]
			if math.IsInf(ub, 1) {
				continue
			}
			lim := (ub - s.xB[i]) / -a
			if lim < tmax-ratioTol || (lim < tmax+ratioTol && leave >= 0 && math.Abs(a) > math.Abs(apiv)) {
				tmax, leave, leaveAtUpper, apiv = lim, i, true, a
			}
		}
	}
	if leave < 0 {
		if math.IsInf(tmax, 1) {
			return Unbounded
		}
		// Bound flip: the entering variable moves straight to its upper
		// bound; re-orient it so it is nonbasic at zero again. The basic
		// point moves along the tableau column: xB ← xB − u·α.
		u := s.upper[j]
		for i := 0; i < s.m; i++ {
			if av := alpha[i]; av != 0 {
				s.xB[i] -= av * u
			}
		}
		s.toggleFlip(j)
		s.d[j] = -s.d[j]
		s.noteProgress(tmax)
		return 0
	}
	if tmax < ratioTol {
		s.stall++
		if s.stall > 5*(s.m+10) {
			s.bland = true
		}
	} else {
		s.noteProgress(tmax)
	}
	if leaveAtUpper && s.upper[s.basis[leave]] > 0 {
		// Re-orient the leaving basic variable so it exits at zero. A
		// zero-width column (fixed variable, pinned artificial) needs no
		// re-orientation — both of its bounds coincide at zero — and for a
		// fixed variable the orientation *is* the fix-at-upper semantics,
		// so flipping it would silently move the pinned value.
		s.flipBasic(leave)
		alpha[leave] = -alpha[leave]
	}
	s.btranRow(leave)
	s.buildPivotRow()
	if st := s.driftGate(leave, j); st != 0 {
		return st
	}
	s.pivotCommit(leave, j)
	return s.maybeRefactor()
}

// dualIterate runs bounded-variable dual simplex pivots from a dual-
// feasible basis until primal feasibility (optimality), proven
// infeasibility, or a budget is exhausted. Two violation forms are handled:
// a basic variable below zero leaves directly; one above a positive upper
// bound is first re-oriented to its complement (flipBasic) so it, too,
// exits at zero. A basic variable above a zero-width bound (fixed
// variables, artificials) pivots out directly — both of its bounds coincide
// at zero, so no re-orientation is needed or wanted.
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

		// Leaving row: most violating basic variable.
		r, above := -1, false
		viol := dualTol
		for i := 0; i < s.m; i++ {
			if v := -s.xB[i]; v > viol {
				viol, r, above = v, i, false
			}
			if ub := s.upper[s.basis[i]]; !math.IsInf(ub, 1) {
				if v := s.xB[i] - ub; v > viol {
					viol, r, above = v, i, true
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
			if s.inBasis[j] || s.banned[j] {
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
			ratio := s.d[j] / av
			if ratio < best-ratioTol ||
				(ratio < best+ratioTol && enter >= 0 && math.Abs(a) > math.Abs(s.accV[enter])) {
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
// sparse pivot row, an eta records the basis change, and the basic solution
// moves by the entering step. Requires alpha = B⁻¹a_j and the pivot row
// (accV/accTouch) for row r.
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

	s.eta.appendPivot(r, s.alpha, s.m)
	s.noteEta()

	// Apply the new eta to xB in place: the entering variable takes the
	// ratio-test step, every other basic value moves along alpha.
	vr := s.xB[r] / piv
	for i := 0; i < s.m; i++ {
		if av := s.alpha[i]; av != 0 {
			s.xB[i] -= av * vr
			if s.xB[i] < 0 && s.xB[i] > -1e-11 {
				s.xB[i] = 0
			}
		}
	}
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

//sqpr:hotpath
func (s *Solver) noteProgress(step float64) {
	if step > ratioTol {
		s.stall = 0
	}
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
