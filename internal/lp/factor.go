package lp

import (
	"math"

	"sqpr/internal/invariant"
)

// FactorStats reports the factorization activity of a Solver since Load:
// how often the basis was refactorized (and how many of those were forced
// by numerical drift rather than the schedule), how many product-form eta
// updates were appended between refactorizations (and how many of those
// bordered the factors with an activated lazy row), the longest eta file
// observed, and the fill-in ratio (LU nonzeros over basis nonzeros) of the
// most recent factorization.
type FactorStats struct {
	Refactors     int     // basis factorizations performed
	DriftRebuilds int     // refactorizations/rebuilds forced by numerical drift
	EtaAppends    int     // product-form updates appended between refactorizations: pivot, negation and row etas
	RowEtas       int     // lazy rows bordered onto valid factors (one row eta each)
	PeakEtas      int     // longest eta file reached, row etas included
	FillRatio     float64 // nnz(L+U) / nnz(B) at the last refactorization
}

// Merge folds o into f: counters add, high-water marks take the maximum.
func (f *FactorStats) Merge(o FactorStats) {
	f.Refactors += o.Refactors
	f.DriftRebuilds += o.DriftRebuilds
	f.EtaAppends += o.EtaAppends
	f.RowEtas += o.RowEtas
	if o.PeakEtas > f.PeakEtas {
		f.PeakEtas = o.PeakEtas
	}
	if o.FillRatio > f.FillRatio {
		f.FillRatio = o.FillRatio
	}
}

// luFactor is a sparse LU factorization of the basis matrix B, produced by
// left-looking Gilbert–Peierls elimination with partial pivoting. Rows are
// addressed by basis *slot*; the factorization assigns each slot a pivot
// *position* (elimination order). L is unit-lower-triangular in position
// order with its off-diagonal entries stored per column against row slots;
// U is upper-triangular with off-diagonal entries stored per column against
// row positions and its diagonal kept separately. The forward solve scatters
// down these columns and the transposed solve gathers across them.
type luFactor struct {
	m      int
	lStart []int32
	lRow   []int32 // row slots of L's off-diagonal entries
	lVal   []float64
	uStart []int32
	uRow   []int32 // row positions of U's off-diagonal entries
	uVal   []float64
	uDiag  []float64
	rpos   []int32 // position -> pivot row slot
	rinv   []int32 // row slot -> position (-1 while unpivoted)
	cpos   []int32 // position -> basis slot whose column pivoted there
	nnzB   int
	nnzLU  int

	// Factorization scratch: a dense work column over row slots, live where
	// its stamp is current, and the slots touched under that stamp.
	w      []float64
	wmark  []int32
	wtouch []int32
	wstamp int32
	cnt    []int32 // counting-sort scratch for the column preorder
	order  []int32 // slot processing order (ascending active column nnz)
	nnzCol []int32
}

// init sizes every arena for a basis of up to mcap rows, so factorizations
// inside the warm solve loop allocate nothing once the high-water mark is
// reached.
func (f *luFactor) init(mcap int) {
	f.lStart = grow(f.lStart, mcap+1)
	f.uStart = grow(f.uStart, mcap+1)
	f.uDiag = grow(f.uDiag, mcap)
	f.rpos = grow(f.rpos, mcap)
	f.rinv = grow(f.rinv, mcap)
	f.cpos = grow(f.cpos, mcap)
	f.w = grow(f.w, mcap)
	f.wmark = grow(f.wmark, mcap)
	for i := range f.wmark[:mcap] {
		f.wmark[i] = 0
	}
	f.wstamp = 0
	f.wtouch = grow(f.wtouch, mcap)[:0]
	f.cnt = grow(f.cnt, mcap+2)
	f.order = grow(f.order, mcap)
	f.nnzCol = grow(f.nnzCol, mcap)
	ecap := 8*mcap + 64
	if cap(f.lRow) < ecap {
		f.lRow = make([]int32, 0, ecap)
		f.lVal = make([]float64, 0, ecap)
		f.uRow = make([]int32, 0, ecap)
		f.uVal = make([]float64, 0, ecap)
	}
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uRow = f.uRow[:0]
	f.uVal = f.uVal[:0]
}

// etaFile is the product-form update sequence since the last refactorize:
// B = B₀·E₁···E_k, each eta the identity except for one column or one row
// (r, piv on the diagonal, sparse off-diagonal entries). A pivot of column a
// in row r appends the column eta built from α = B⁻¹a; re-orienting a basic
// variable appends a negation eta (a column eta with piv −1 and no
// entries); activating a lazy row at the new slot r appends a row eta
// (piv the slack coefficient, entries the row's coefficients on the basic
// columns) — the border of B' = diag(B,1)·E.
type etaFile struct {
	count int
	r     []int32
	piv   []float64
	row   []bool  // eta k replaces row r of the identity, not column r
	start []int32 // len count+1, offsets into idx/val
	idx   []int32
	val   []float64
}

// init sizes the arenas for a basis of up to mcap rows of which lazyRows
// (with lazyNNZ coefficients in total) may be bordered on by row etas: the
// file holds at most one refactor interval of pivot etas plus one row eta
// per activated row before prepWarm's scheduled refactorize empties it.
func (e *etaFile) init(mcap, lazyRows, lazyNNZ int) {
	ecap := refactorInterval*2 + lazyRows
	if cap(e.r) < ecap {
		e.r = make([]int32, 0, ecap)
		e.piv = make([]float64, 0, ecap)
		e.row = make([]bool, 0, ecap)
		e.start = make([]int32, 1, ecap+1)
	}
	ncap := 4*mcap + 64 + lazyNNZ
	if cap(e.idx) < ncap {
		e.idx = make([]int32, 0, ncap)
		e.val = make([]float64, 0, ncap)
	}
	e.reset()
}

func (e *etaFile) reset() {
	e.count = 0
	e.r = e.r[:0]
	e.piv = e.piv[:0]
	e.row = e.row[:0]
	e.start = e.start[:1]
	e.start[0] = 0
	e.idx = e.idx[:0]
	e.val = e.val[:0]
}

// appendNeg records the negation eta of re-orienting the basic variable of
// row r (its basis column is negated: E is the identity with −1 at (r,r)).
//
//sqpr:hotpath
func (e *etaFile) appendNeg(r int) {
	e.close(r, -1, false)
}

// close ends the eta whose off-diagonal entries were just appended to
// idx/val: diagonal piv at (r,r), the entries down column r or along row r.
//
//sqpr:hotpath
func (e *etaFile) close(r int, piv float64, row bool) {
	e.r = append(e.r, int32(r))                  //sqpr:amortized
	e.piv = append(e.piv, piv)                   //sqpr:amortized
	e.row = append(e.row, row)                   //sqpr:amortized
	e.start = append(e.start, int32(len(e.idx))) //sqpr:amortized
	e.count++
}

// scatter solves against eta k along its stored entries: v_r ← v_r/piv,
// then v_i −= val_i·v_r. This is E⁻¹v for a column eta and E⁻ᵀv for a row
// eta.
//
//sqpr:hotpath
func (e *etaFile) scatter(k int, v []float64) {
	r := int(e.r[k])
	vr := v[r]
	if vr == 0 {
		return
	}
	vr /= e.piv[k]
	v[r] = vr
	for t := e.start[k]; t < e.start[k+1]; t++ {
		v[e.idx[t]] -= e.val[t] * vr
	}
}

// gather solves against eta k across its stored entries:
// v_r ← (v_r − Σ val_i·v_i)/piv. This is E⁻ᵀv for a column eta and E⁻¹v
// for a row eta.
//
//sqpr:hotpath
func (e *etaFile) gather(k int, v []float64) {
	sum := 0.0
	for t := e.start[k]; t < e.start[k+1]; t++ {
		sum += e.val[t] * v[e.idx[t]]
	}
	r := int(e.r[k])
	v[r] = (v[r] - sum) / e.piv[k]
}

// applyF applies the eta sequence forward: v ← E_k⁻¹···E₁⁻¹ v.
//
//sqpr:hotpath
func (e *etaFile) applyF(v []float64) {
	for k := 0; k < e.count; k++ {
		if e.row[k] {
			e.gather(k, v)
		} else {
			e.scatter(k, v)
		}
	}
}

// applyB applies the transposed etas in reverse: v ← E₁⁻ᵀ···E_k⁻ᵀ v.
//
//sqpr:hotpath
func (e *etaFile) applyB(v []float64) {
	for k := e.count - 1; k >= 0; k-- {
		if e.row[k] {
			e.scatter(k, v)
		} else {
			e.gather(k, v)
		}
	}
}

// ftran solves B·z = v in place (v indexed by slot): LU solve against the
// last factorization, then the eta updates forward.
//
//sqpr:hotpath
func (s *Solver) ftran(v []float64) {
	s.luSolveF(v)
	s.eta.applyF(v)
}

// btran solves Bᵀ·z = v in place: eta updates in reverse, then the
// transposed LU solve.
//
//sqpr:hotpath
func (s *Solver) btran(v []float64) {
	s.eta.applyB(v)
	s.luSolveB(v)
}

// border extends valid factors over the inequality row just appended at
// basis slot r with slack coefficient sigma, instead of discarding them. The
// grown basis is B' = diag(B,1)·E with E the identity except for row r,
// which holds the row's coefficients on the basic columns (by slot, in the
// current orientation) and sigma on the diagonal. diag(B,1) costs the LU
// one trivial pivot (unit diagonal, empty L and U columns, slot r at
// position r); E is one row eta. The new basic value follows from the row
// itself, xB[r] = (beff[r] − a_B·xB)/sigma, and the slack's zero cost puts
// a zero in y = B'⁻ᵀc_B at r, so every other reduced cost stays exact.
//
//sqpr:hotpath
func (s *Solver) border(row, r int, sigma float64) {
	s.lu.extend(r)
	e := &s.eta
	dot := 0.0
	rows := s.rows
	for k := rows.Start[row]; k < rows.Start[row+1]; k++ {
		j := rows.Var[k]
		if !s.inBasis[j] {
			continue
		}
		a := rows.Coef[k]
		if s.flipped[j] {
			a = -a
		}
		i := s.rowOf[j]
		e.idx = append(e.idx, int32(i)) //sqpr:amortized
		e.val = append(e.val, a)        //sqpr:amortized
		dot += a * s.xB[i]
	}
	e.close(r, sigma, true)
	s.noteEta()
	s.stats.RowEtas++
	if s.xbValid {
		s.xB[r] = (s.beff[r] - dot) / sigma
	}
}

// extend grows the factors from B₀ to diag(B₀,1): slot r = f.m pivots at
// position r on a unit diagonal with empty L and U columns.
//
//sqpr:hotpath
func (f *luFactor) extend(r int) {
	f.uDiag[r] = 1
	f.rpos[r] = int32(r)
	f.rinv[r] = int32(r)
	f.cpos[r] = int32(r)
	f.lStart[r+1] = f.lStart[r]
	f.uStart[r+1] = f.uStart[r]
	f.m = r + 1
	if invariant.Enabled {
		f.mustInvertRows("extend")
	}
}

// mustInvertRows is the checked-build assertion that rinv inverts rpos over
// the m pivoted slots, which luSolveB's Lᵀ solve reads it as.
func (f *luFactor) mustInvertRows(after string) {
	for k := 0; k < f.m; k++ {
		if r := f.rpos[k]; r < 0 || int(r) >= f.m || f.rinv[r] != int32(k) {
			invariant.Failf("lp: after %s position %d pivots on slot %d, which rinv maps to position %d", after, k, r, f.rinv[max(r, 0)])
		}
	}
}

// noteEta counts the eta just appended.
//
//sqpr:hotpath
func (s *Solver) noteEta() {
	s.stats.EtaAppends++
	if s.eta.count > s.stats.PeakEtas {
		s.stats.PeakEtas = s.eta.count
	}
}

// luSolveF solves (B₀)z = v in place against the LU factors: forward
// substitution through L in position order, backward through U, each
// skipping the positions that are zero, then the column permutation
// scatters position-space results back to slots.
//
//sqpr:hotpath
func (s *Solver) luSolveF(v []float64) {
	f := &s.lu
	m := f.m
	for t := 0; t < m; t++ {
		vv := v[f.rpos[t]]
		if vv == 0 {
			continue
		}
		for e := f.lStart[t]; e < f.lStart[t+1]; e++ {
			v[f.lRow[e]] -= f.lVal[e] * vv
		}
	}
	w := s.work
	for t := m - 1; t >= 0; t-- {
		vv := v[f.rpos[t]]
		if vv == 0 {
			w[t] = 0
			continue
		}
		vv /= f.uDiag[t]
		w[t] = vv
		for e := f.uStart[t]; e < f.uStart[t+1]; e++ {
			v[f.rpos[f.uRow[e]]] -= f.uVal[e] * vv
		}
	}
	for t := 0; t < m; t++ {
		v[f.cpos[t]] = w[t]
	}
}

// luSolveB solves (B₀)ᵀz = v in place: forward through Uᵀ in position
// order, backward through Lᵀ, each in gather form — position t takes the
// solved positions of its column of U (or L) — with the column permutation
// gathering slots into positions and the row permutation scattering the
// results back.
//
//sqpr:hotpath
func (s *Solver) luSolveB(v []float64) {
	f := &s.lu
	m := f.m
	w := s.work
	for t := 0; t < m; t++ {
		w[t] = v[f.cpos[t]]
	}
	for t := 0; t < m; t++ {
		vv := w[t]
		for e := f.uStart[t]; e < f.uStart[t+1]; e++ {
			vv -= f.uVal[e] * w[f.uRow[e]]
		}
		w[t] = vv / f.uDiag[t]
	}
	for t := m - 1; t >= 0; t-- {
		vv := w[t]
		for e := f.lStart[t]; e < f.lStart[t+1]; e++ {
			vv -= f.lVal[e] * w[f.rinv[f.lRow[e]]]
		}
		w[t] = vv
	}
	for t := 0; t < m; t++ {
		v[f.rpos[t]] = w[t]
	}
}

// activeColNNZ counts the entries of basis column col over the active rows.
//
//sqpr:hotpath
func (s *Solver) activeColNNZ(col int) int {
	if col >= s.nStruct {
		return 1
	}
	n := 0
	for t := s.ccStart[col]; t < s.ccStart[col+1]; t++ {
		if s.rowSlot[s.ccRow[t]] >= 0 {
			n++
		}
	}
	return n
}

// refactorize rebuilds the LU factors of the current basis from the problem
// data (the elimination documented on luFactor, columns taken in ascending
// active-nonzero order to limit fill), resets the eta file, and refreshes
// the basic solution and reduced costs exactly. Reports false when the
// basis is numerically singular — the caller falls back to a cold rebuild,
// whose slack start basis is diagonal and always factorizes.
func (s *Solver) refactorize() bool {
	f := &s.lu
	m := s.m
	f.m = m
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uRow = f.uRow[:0]
	f.uVal = f.uVal[:0]
	f.lStart[0] = 0
	f.uStart[0] = 0
	for t := 0; t < m; t++ {
		f.rinv[t] = -1
	}
	if f.wstamp > math.MaxInt32-int32(m)-4 {
		for i := range f.wmark[:len(f.wmark)] {
			f.wmark[i] = 0
		}
		f.wstamp = 0
	}

	// Column preorder: counting sort of the basis columns by active nnz.
	nnzB := 0
	for t := 0; t < m; t++ {
		c := s.activeColNNZ(s.basis[t])
		if c > m {
			c = m
		}
		f.nnzCol[t] = int32(c)
		nnzB += c
	}
	for k := 0; k <= m+1; k++ {
		f.cnt[k] = 0
	}
	for t := 0; t < m; t++ {
		f.cnt[f.nnzCol[t]+1]++
	}
	for k := 1; k <= m+1; k++ {
		f.cnt[k] += f.cnt[k-1]
	}
	for t := 0; t < m; t++ {
		f.order[f.cnt[f.nnzCol[t]]] = int32(t)
		f.cnt[f.nnzCol[t]]++
	}
	f.nnzB = nnzB

	for k := 0; k < m; k++ {
		srcSlot := int(f.order[k])
		col := s.basis[srcSlot]
		f.wstamp++
		st := f.wstamp
		f.wtouch = f.wtouch[:0]
		// Scatter the basis column into the work vector.
		if col < s.nStruct {
			sign := 1.0
			if s.flipped[col] {
				sign = -1
			}
			for e := s.ccStart[col]; e < s.ccStart[col+1]; e++ {
				slot := s.rowSlot[s.ccRow[e]]
				if slot < 0 {
					continue
				}
				f.scatterEntry(slot, sign*s.ccCoef[e], st)
			}
		} else {
			t := col - s.nStruct
			f.scatterEntry(int32(t), s.slackCoef[t], st)
		}
		// Sparse lower solve: the pivotal positions in ascending order (a
		// topological order for L), skipping slots the column has not
		// touched, emitting U entries and scattering fill-in as it appears.
		for t := int32(0); t < int32(k); t++ {
			slot := f.rpos[t]
			if f.wmark[slot] != st {
				continue
			}
			v := f.w[slot]
			if v == 0 {
				continue
			}
			f.uRow = append(f.uRow, t) //sqpr:amortized
			f.uVal = append(f.uVal, v) //sqpr:amortized
			for e := f.lStart[t]; e < f.lStart[t+1]; e++ {
				f.scatterEntry(f.lRow[e], 0, st)
				f.w[f.lRow[e]] -= f.lVal[e] * v
			}
		}
		// Partial pivoting over the unpivoted residual.
		best, bestAbs := int32(-1), 0.0
		for _, slot := range f.wtouch {
			if f.rinv[slot] < 0 {
				if a := math.Abs(f.w[slot]); a > bestAbs {
					bestAbs, best = a, slot
				}
			}
		}
		if bestAbs <= luSingularTol {
			s.factorValid = false
			return false
		}
		piv := f.w[best]
		f.uDiag[k] = piv
		for _, slot := range f.wtouch {
			if f.rinv[slot] < 0 && slot != best {
				if v := f.w[slot]; v != 0 {
					f.lRow = append(f.lRow, slot)  //sqpr:amortized
					f.lVal = append(f.lVal, v/piv) //sqpr:amortized
				}
			}
		}
		f.rpos[k] = best
		f.rinv[best] = int32(k)
		f.cpos[k] = int32(srcSlot)
		f.lStart[k+1] = int32(len(f.lRow))
		f.uStart[k+1] = int32(len(f.uRow))
	}
	f.nnzLU = len(f.lRow) + len(f.uRow) + m

	s.eta.reset()
	s.factorValid = true
	s.stats.Refactors++
	if nnzB > 0 {
		s.stats.FillRatio = float64(f.nnzLU) / float64(nnzB)
	} else {
		s.stats.FillRatio = 1
	}
	s.ftranXB()
	s.computeDuals()
	if invariant.Enabled {
		f.mustInvertRows("refactorize")
		s.checkResidual("refactorize")
	}
	return true
}

// scatterEntry marks slot live in the stamped work vector (zero-filling on
// first touch), then adds v.
//
//sqpr:hotpath
func (f *luFactor) scatterEntry(slot int32, v float64, st int32) {
	if f.wmark[slot] != st {
		f.wmark[slot] = st
		f.w[slot] = 0
		f.wtouch = append(f.wtouch, slot) //sqpr:amortized
	}
	f.w[slot] += v
}

// costOf returns the objective coefficient of column j under the current
// orientation, with negative costs at zero while the cold pass is shifted.
//
//sqpr:hotpath
func (s *Solver) costOf(j int) float64 {
	if j >= s.nStruct {
		return 0
	}
	c := s.rows.Cost[j]
	if s.shifted && c < 0 {
		c = 0
	}
	if s.flipped[j] {
		return -c
	}
	return c
}

// computeDuals recomputes every reduced cost exactly from the current
// factors: y = B⁻ᵀ·c_B by one BTRAN into rho, yᵀA over the nonbasic
// columns by expanding only the active rows where y is nonzero
// (buildPivotRow), then d_j = c_j − y·a_j. Runs at every refactorize so
// incremental d updates cannot drift for more than one refactor interval.
//
//sqpr:hotpath
func (s *Solver) computeDuals() {
	m := s.m
	y := s.rho
	for t := 0; t < m; t++ {
		y[t] = s.costOf(s.basis[t])
	}
	s.btran(y)
	s.buildPivotRow()
	for j := 0; j < s.n; j++ {
		if s.inBasis[j] {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.costOf(j)
	}
	for _, j := range s.accTouch {
		s.d[j] -= s.accV[j]
	}
}

// checkResidual verifies ‖B·xB − beff‖∞ against the factorization residual
// tolerance. Checked builds call it from refactorize, right after xB was
// recomputed through the fresh factors, and after every activation wave
// that bordered the factors, where xB was extended in place.
func (s *Solver) checkResidual(where string) {
	m := s.m
	res := make([]float64, m)
	scale := 1.0
	for t := 0; t < m; t++ {
		res[t] = -s.beff[t]
		if a := math.Abs(s.beff[t]); a > scale {
			scale = a
		}
	}
	for t := 0; t < m; t++ {
		v := s.xB[t]
		if v == 0 {
			continue
		}
		col := s.basis[t]
		if col < s.nStruct {
			sign := 1.0
			if s.flipped[col] {
				sign = -1
			}
			for e := s.ccStart[col]; e < s.ccStart[col+1]; e++ {
				if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
					res[slot] += sign * s.ccCoef[e] * v
				}
			}
		} else {
			t := col - s.nStruct
			res[t] += s.slackCoef[t] * v
		}
	}
	for t := 0; t < m; t++ {
		if math.Abs(res[t]) > residualTol*scale {
			invariant.Failf("lp: %s left factorization residual %.3e at slot %d (tol %.1e, scale %.3e)",
				where, res[t], t, residualTol, scale)
		}
	}
}

// checkDuals verifies every nonbasic reduced cost against computeDuals'
// exact recomputation through the current factors, then puts the carried
// values back so checked and release builds pivot alike. Checked builds call
// it after every activation wave that bordered the factors: the wave's claim
// is that the carried-over d is still the d of the grown basis.
func (s *Solver) checkDuals(where string) {
	carried := append([]float64(nil), s.d[:s.n]...)
	s.computeDuals()
	for j, want := range s.d[:s.n] {
		if !s.inBasis[j] && math.Abs(carried[j]-want) > dualCheckTol*(1+math.Abs(want)) {
			invariant.Failf("lp: %s left reduced cost d[%d]=%.12g, recomputed %.12g (tol %.1e)",
				where, j, carried[j], want, dualCheckTol)
		}
	}
	copy(s.d, carried)
}
