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
// row positions and its diagonal kept separately. Both triangles are also
// kept row-wise, indexed by position against column positions, so the
// transposed solve scatters along rows the way the forward solve scatters
// down columns.
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

	// Row-wise copies: row position t of L holds ltCol/ltVal[ltStart[t]:
	// ltStart[t+1]], of U utCol/utVal[utStart[t]:utStart[t+1]], each entry
	// against its column position.
	ltStart []int32
	ltCol   []int32
	ltVal   []float64
	utStart []int32
	utCol   []int32
	utVal   []float64

	// Factorization scratch: a stamped dense work column over row slots and
	// a min-heap of pivotal positions that orders the sparse lower solve.
	w      []float64
	wmark  []int32
	wtouch []int32
	wstamp int32
	heap   []int32
	hseen  []int32
	cnt    []int32 // counting-sort scratch for the column preorder
	order  []int32 // slot processing order (ascending active column nnz)
	nnzCol []int32
}

// init sizes every arena for a basis of up to mcap rows, so factorizations
// inside the warm solve loop allocate nothing once the high-water mark is
// reached.
func (f *luFactor) init(mcap int) {
	f.lStart = growI32(f.lStart, mcap+1)
	f.uStart = growI32(f.uStart, mcap+1)
	f.uDiag = growF(f.uDiag, mcap)
	f.rpos = growI32(f.rpos, mcap)
	f.rinv = growI32(f.rinv, mcap)
	f.cpos = growI32(f.cpos, mcap)
	f.ltStart = growI32(f.ltStart, mcap+1)
	f.utStart = growI32(f.utStart, mcap+1)
	f.w = growF(f.w, mcap)
	f.wmark = growI32(f.wmark, mcap)
	for i := range f.wmark[:mcap] {
		f.wmark[i] = 0
	}
	f.wstamp = 0
	f.wtouch = growI32(f.wtouch, mcap)[:0]
	f.heap = growI32(f.heap, mcap)[:0]
	f.hseen = growI32(f.hseen, mcap)
	for i := range f.hseen[:mcap] {
		f.hseen[i] = 0
	}
	f.cnt = growI32(f.cnt, mcap+2)
	f.order = growI32(f.order, mcap)
	f.nnzCol = growI32(f.nnzCol, mcap)
	ecap := 8*mcap + 64
	if cap(f.lRow) < ecap {
		f.lRow = make([]int32, 0, ecap)
		f.lVal = make([]float64, 0, ecap)
		f.uRow = make([]int32, 0, ecap)
		f.uVal = make([]float64, 0, ecap)
		f.ltCol = make([]int32, 0, ecap)
		f.ltVal = make([]float64, 0, ecap)
		f.utCol = make([]int32, 0, ecap)
		f.utVal = make([]float64, 0, ecap)
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

// border extends valid factors over the inequality row c just appended at
// basis slot r with slack coefficient sigma, instead of discarding them. The
// grown basis is B' = diag(B,1)·E with E the identity except for row r,
// which holds c's coefficients on the basic columns (by slot, in the
// current orientation) and sigma on the diagonal. diag(B,1) costs the LU
// one trivial pivot (unit diagonal, empty L and U columns, slot r at
// position r); E is one row eta. The new basic value follows from the row
// itself, xB[r] = (beff[r] − a_B·xB)/sigma, and the slack's zero cost puts
// a zero in y = B'⁻ᵀc_B at r, so every other reduced cost stays exact.
//
//sqpr:hotpath
func (s *Solver) border(c *Constraint, r int, sigma float64) {
	s.lu.extend(r)
	e := &s.eta
	dot := 0.0
	for _, tm := range c.Terms {
		if !s.inBasis[tm.Var] {
			continue
		}
		a := tm.Coef
		if s.flipped[tm.Var] {
			a = -a
		}
		i := s.rowOf[tm.Var]
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
// position r on a unit diagonal with empty L and U columns, and empty L and
// U rows.
//
//sqpr:hotpath
func (f *luFactor) extend(r int) {
	f.uDiag[r] = 1
	f.rpos[r] = int32(r)
	f.rinv[r] = int32(r)
	f.cpos[r] = int32(r)
	f.lStart[r+1] = f.lStart[r]
	f.uStart[r+1] = f.uStart[r]
	f.ltStart[r+1] = f.ltStart[r]
	f.utStart[r+1] = f.utStart[r]
	f.m = r + 1
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
// order, backward through Lᵀ, each in scatter form — a solved nonzero
// scatters along its row of the row-wise copy, a zero is skipped — with the
// row permutation scattering the results back to slots.
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
		if vv == 0 {
			continue
		}
		vv /= f.uDiag[t]
		w[t] = vv
		for e := f.utStart[t]; e < f.utStart[t+1]; e++ {
			w[f.utCol[e]] -= f.utVal[e] * vv
		}
	}
	for t := m - 1; t >= 0; t-- {
		vv := w[t]
		if vv == 0 {
			continue
		}
		for e := f.ltStart[t]; e < f.ltStart[t+1]; e++ {
			w[f.ltCol[e]] -= f.ltVal[e] * vv
		}
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
		for i := range f.hseen[:len(f.hseen)] {
			f.hseen[i] = 0
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
		f.heap = f.heap[:0]
		// Scatter the basis column into the work vector, seeding the heap
		// with already-pivotal row positions.
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
		// Sparse lower solve: pop pivotal positions in ascending order
		// (ascending positions is a topological order for L), emitting U
		// entries and pushing fill-in as it appears.
		for len(f.heap) > 0 {
			t := f.heapPop()
			v := f.w[f.rpos[t]]
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
	f.ltCol, f.ltVal = rowCopy(m, f.lStart, f.lRow, f.lVal, f.rinv, f.ltStart, f.ltCol, f.ltVal)
	f.utCol, f.utVal = rowCopy(m, f.uStart, f.uRow, f.uVal, nil, f.utStart, f.utCol, f.utVal)

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
		s.checkResidual("refactorize")
	}
	return true
}

// rowCopy writes the row-wise copy of a triangle stored by column over m
// positions: column t holds idx/val[start[t]:start[t+1]], and an entry's
// row position is pos[idx] (idx itself when pos is nil). rs receives the
// row starts; rc/rv, resized and returned, the column positions and values,
// each row in ascending column order.
func rowCopy(m int, start, idx []int32, val []float64, pos, rs, rc []int32, rv []float64) ([]int32, []float64) {
	nnz := int(start[m])
	if cap(rc) < nnz {
		// Take the column storage's capacity, which append grows
		// geometrically, so the copy does not reallocate at every
		// refactorize once the factors outgrow init's sizing.
		rc = make([]int32, 0, cap(idx))
		rv = make([]float64, 0, cap(idx))
	}
	rc, rv = rc[:nnz], rv[:nnz]
	for t := 0; t <= m; t++ {
		rs[t] = 0
	}
	for _, p := range idx[:nnz] {
		if pos != nil {
			p = pos[p]
		}
		rs[p+1]++
	}
	for t := 0; t < m; t++ {
		rs[t+1] += rs[t]
	}
	// Fill using rs as the write cursor, then shift it back.
	for t := 0; t < m; t++ {
		for e := start[t]; e < start[t+1]; e++ {
			p := idx[e]
			if pos != nil {
				p = pos[p]
			}
			rc[rs[p]] = int32(t)
			rv[rs[p]] = val[e]
			rs[p]++
		}
	}
	for t := m; t > 0; t-- {
		rs[t] = rs[t-1]
	}
	rs[0] = 0
	return rc, rv
}

// scatterEntry marks slot live in the stamped work vector (zero-filling on
// first touch) and seeds the elimination heap when the slot is already
// pivotal, then adds v.
//
//sqpr:hotpath
func (f *luFactor) scatterEntry(slot int32, v float64, st int32) {
	if f.wmark[slot] != st {
		f.wmark[slot] = st
		f.w[slot] = 0
		f.wtouch = append(f.wtouch, slot) //sqpr:amortized
		if p := f.rinv[slot]; p >= 0 && f.hseen[p] != st {
			f.hseen[p] = st
			f.heapPush(p)
		}
	}
	f.w[slot] += v
}

//sqpr:hotpath
func (f *luFactor) heapPush(p int32) {
	f.heap = append(f.heap, p) //sqpr:amortized
	i := len(f.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if f.heap[parent] <= f.heap[i] {
			break
		}
		f.heap[parent], f.heap[i] = f.heap[i], f.heap[parent]
		i = parent
	}
}

//sqpr:hotpath
func (f *luFactor) heapPop() int32 {
	top := f.heap[0]
	last := len(f.heap) - 1
	f.heap[0] = f.heap[last]
	f.heap = f.heap[:last]
	i := 0
	//sqpr:noctx bounded sift-down over the heap height
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && f.heap[l] < f.heap[small] {
			small = l
		}
		if r < last && f.heap[r] < f.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		f.heap[i], f.heap[small] = f.heap[small], f.heap[i]
		i = small
	}
	return top
}

// costOf returns the objective coefficient of column j under the current
// orientation, with negative costs at zero while the cold pass is shifted.
//
//sqpr:hotpath
func (s *Solver) costOf(j int) float64 {
	if j >= s.nStruct {
		return 0
	}
	c := s.prob.cost(j)
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
