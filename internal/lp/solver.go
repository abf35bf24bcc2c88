package lp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"sqpr/internal/invariant"
)

// Solver is a reusable sparse revised-simplex engine. Instead of carrying a
// dense tableau, it reads the constraint rows from the caller's CSR, builds
// their compressed-sparse-column transpose once per Load, and represents
// the basis inverse implicitly: an LU
// factorization of the basis matrix refreshed every few dozen pivots, plus a
// product-form eta file for the pivots in between. Every tableau quantity
// the simplex method needs is recovered on demand by two sparse triangular
// solves — FTRAN (B⁻¹·a, entering columns and basic values) and BTRAN
// (B⁻ᵀ·e, pivot rows and duals). A pivot costs the nonzeros it touches
// plus a handful of sweeps over the m basis slots: each triangular solve
// visits every position once (the forward one does work only at its
// nonzeros, the transposed one gathers every stored entry of L and U), the
// eta file costs its entries, the pivot row and the reduced costs expand
// only the rows where ρ or y is nonzero, and the eta and basic-solution
// update is one pass over α. The leaving-row scan is an O(m) pass with work
// at every slot.
//
// The public surface — Load/ReSolve with warm restarts, Fix/Unfix bound
// pinning, lazy row activation, SaveBasis/RestoreBasis snapshots and RowDual
// sensitivities — is the one the dense tableau engine had; that engine
// survives as the test-only oracle of the equivalence suite (dense_test.go).
// Internal conventions differ from it in one deliberate way: rows are stored
// in their natural orientation with slack coefficient +1 (LE) or −1 (GE) and
// the RHS is never sign-normalised. Tableau rows B⁻¹A are invariant under
// row scaling, so every externally observable quantity (duals, reduced
// costs) matches the oracle's.
//
// The solver is not safe for concurrent use; use one per goroutine.
type Solver struct {
	rows *CSR // the loaded program; Load flattens a Problem into flat
	flat CSR

	mAll    int // total constraint rows of the problem
	m       int // active rows (= basis size)
	nStruct int // structural variables
	nSlack  int // inequality rows of the problem

	// colCap is the worst-case live column count, nStruct + mAll; arenas
	// are sized for it up front, so warm-activating rows never reallocates.
	colCap int

	n int // live total columns (structural + one slack per active row)

	lazyMode   bool
	activeRows []bool // per original row
	nInactive  int

	// Constraint matrix in compressed-sparse-column form over the structural
	// variables, the transpose of rows: column j's entries are
	// ccRow/ccCoef[ccStart[j]:ccStart[j+1]] in row order, with ccRow holding
	// *original row indices* (not basis slots), so the matrix never needs
	// rebuilding as lazy rows activate.
	ccStart []int32
	ccRow   []int32
	ccCoef  []float64

	// Active-row bookkeeping. Each active row owns a basis "slot" in [0, m);
	// slots are assigned at rebuild/activation time and stay stable until
	// the next cold rebuild or basis restore.
	rowSlot []int32 // original row -> slot, -1 when inactive
	slotRow []int32 // slot -> original row

	// The columns >= nStruct are slacks, one per active row: column
	// nStruct+t is the singleton slackCoef[t] in slot t.
	slackCoef []float64

	basis   []int // slot -> basic column
	rowOf   []int // column -> slot, -1 when nonbasic
	inBasis []bool
	upper   []float64 // effective bound; 0 for fixed variables and EQ slacks, which never enter
	baseU   []float64 // bound as loaded, used for orientation arithmetic
	flipped []bool    // column in complement orientation x̄ = u − x
	fixVal  []int8    // structural fix state
	d       []float64 // reduced costs of the current basis

	// released lists the columns Unfix freed since the last solve; the next
	// warm ReSolve bound-flips those whose reduced cost went negative.
	released []int32

	// beff is the effective right-hand side per slot under the current
	// orientation: RHS minus the contributions of flipped columns at their
	// bounds. The basic solution is xB = B⁻¹·beff. beff is maintained
	// incrementally by toggleFlip; xB is refreshed by FTRAN when stale.
	beff []float64
	xB   []float64

	// Factorization state. factorValid marks that lu+eta describe the
	// current basis; xbValid that xB matches basis/beff. A restore or a cold
	// rebuild clears factorValid; bound-orientation changes off the basis
	// clear only xbValid; pivots, basic re-orientations and lazy-row
	// activation (see border) update lu+eta and xB in step and clear neither.
	lu          luFactor
	eta         etaFile
	factorValid bool
	xbValid     bool
	shifted     bool // costOf prices negative costs at zero (the cold pass's first leg)
	driftTries  int
	stats       FactorStats

	// Solve scratch, all preallocated by Load to keep the warm path free of
	// heap allocation: alpha/rho are FTRAN/BTRAN result vectors, work is the
	// LU solves' position-indexed buffer, accV/accMark/accTouch hold the
	// sparse pivot row.
	alpha    []float64
	rho      []float64
	work     []float64
	accV     []float64
	accMark  []int
	accTouch []int32
	accRound int

	xbuf []float64 // extraction buffer

	iters    int
	maxIters int
	deadline time.Time
	ctx      context.Context
	bland    bool // least-index rule, after a run of zero-step pivots
	stall    int  // consecutive zero-step pivots

	// Incremental lazy-row scanning: per-variable last-scanned values, so a
	// re-solve only re-evaluates the rows (found through the CSC) of the
	// variables that moved.
	scanX     []float64
	scanValid bool
	rowMark   []int
	rowRound  int

	// warm records that the solver holds a dual-feasible basis from a
	// completed solve, so ReSolve may start with dual simplex.
	warm bool

	// snap is the saved-basis arena of SaveBasis/RestoreBasis. Only logical
	// state is snapshotted — basis, bounds, orientation, active rows, duals
	// — never the factorization: restoring marks the factors stale and the
	// next solve refactorizes, which costs one LU of the snapshot's basis
	// plus a full dual pass (computeDuals).
	snap struct {
		valid      bool
		m          int
		n          int
		nInactive  int
		activeRows []bool
		slotRow    []int32
		slackCoef  []float64
		beff       []float64
		basis      []int
		rowOf      []int
		inBasis    []bool
		upper      []float64
		flipped    []bool
		fixVal     []int8
		d          []float64
	}
}

// Internal status sentinels used between the pivot loops and ReSolve. They
// never escape the package: stRetry restarts the current iteration after a
// drift-triggered refactorize; stCold aborts the warm attempt entirely and
// falls back to a cold rebuild via ReSolve's IterLimit branch.
const (
	stRetry Status = -1
	stCold  Status = -2
)

const (
	refactorInterval = 64   // eta count that triggers a scheduled refactorize
	maxDriftTries    = 3    // drift-triggered refactorizes per ReSolve
	driftCheckTol    = 1e-7 // FTRAN-vs-BTRAN pivot agreement tolerance
	luSingularTol    = 1e-10
	residualTol      = 1e-6 // ‖B·xB − beff‖∞ bound checked after refactorize and bordering
	dualCheckTol     = 1e-7 // carried-vs-recomputed reduced-cost bound checked after bordering
)

// NewSolver returns an empty solver; call Load before solving.
func NewSolver() *Solver { return &Solver{} }

// SetLazy toggles lazy row activation for subsequent Loads. Must be called
// before Load.
func (s *Solver) SetLazy(on bool) { s.lazyMode = on }

// etaLimit is the effective eta-file length that triggers a scheduled
// refactorize: refactorInterval, but never more than half the basis size
// (with a small floor). Applying the file costs O(count + its entries) per
// FTRAN and per BTRAN, not O(count · m), so the cap buys no time: against
// the plain interval it is level on the S15 kernel benchmark and a few
// percent behind end to end (DESIGN.md "Sparse revised simplex"). It stays
// for the pivot paths it sets on small bases: without it the Fig. 2
// example's branch-and-bound reaches other vertices and runs out of its
// node budget before admitting.
//
//sqpr:hotpath
func (s *Solver) etaLimit() int {
	lim := refactorInterval
	if h := s.m / 2; h < lim {
		if h < 8 {
			h = 8
		}
		lim = h
	}
	return lim
}

// FactorStats returns the factorization counters accumulated since Load.
func (s *Solver) FactorStats() FactorStats { return s.stats }

// Load flattens p into a solver-owned CSR and loads that (LoadCSR); the
// solver keeps no reference to p. Missing Cost entries are zero and missing
// Upper entries +Inf, which LoadCSR rejects.
func (s *Solver) Load(p *Problem) error {
	n := p.NumVars
	if len(p.Cost) > n || len(p.Upper) > n {
		return fmt.Errorf("lp: %d costs and %d bounds for %d variables", len(p.Cost), len(p.Upper), n)
	}
	a := &s.flat
	a.NumVars = n
	a.Cost = append(a.Cost[:0], p.Cost...)
	a.Upper = append(a.Upper[:0], p.Upper...)
	for len(a.Cost) < n {
		a.Cost = append(a.Cost, 0)
	}
	for len(a.Upper) < n {
		a.Upper = append(a.Upper, math.Inf(1))
	}
	a.Start = append(a.Start[:0], 0)
	a.Var, a.Coef = a.Var[:0], a.Coef[:0]
	a.Sense, a.RHS = a.Sense[:0], a.RHS[:0]
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= n { // before int32 could wrap it into range
				return fmt.Errorf("lp: constraint %d references variable %d outside [0,%d)", i, t.Var, n)
			}
			a.Var = append(a.Var, int32(t.Var))
			a.Coef = append(a.Coef, t.Coef)
		}
		a.Start = append(a.Start, int32(len(a.Var)))
		a.Sense = append(a.Sense, c.Sense)
		a.RHS = append(a.RHS, c.RHS)
	}
	return s.LoadCSR(a)
}

// LoadCSR loads a into the solver's arenas, growing them only when a is
// larger than any previously loaded program. It checks a in the pass that
// builds the column-wise copy (buildCSC). All variables start free and the
// first ReSolve performs a cold solve. The solver keeps a reference to a
// (it does not copy the rows) and never mutates it.
func (s *Solver) LoadCSR(a *CSR) error {
	nr := len(a.Sense)
	if len(a.Cost) != a.NumVars || len(a.Upper) != a.NumVars || len(a.Start) != nr+1 || len(a.RHS) != nr ||
		a.Start[0] != 0 || int(a.Start[nr]) != len(a.Var) || len(a.Coef) != len(a.Var) {
		return fmt.Errorf("lp: malformed CSR of %d variables and %d rows", a.NumVars, nr)
	}
	s.rows = a
	s.mAll = nr
	s.nStruct = a.NumVars
	ineqNNZ, err := s.buildCSC()
	if err != nil {
		s.rows = nil
		return err
	}
	s.warm = false
	s.factorValid = false
	s.xbValid = false
	s.shifted = false
	s.stats = FactorStats{}
	s.m = 0

	s.rowSlot = grow(s.rowSlot, s.mAll)
	s.slotRow = grow(s.slotRow, s.mAll)
	s.activeRows = grow(s.activeRows, s.mAll)
	s.nSlack = 0
	s.nInactive = 0
	for i, sense := range a.Sense {
		// Slack columns are assigned when a row enters the basis (rebuild,
		// or warm activation), not up front: the live column count then
		// scales with the rows actually active, not with the thousands of
		// lazy rows that never bind.
		s.rowSlot[i] = -1
		if sense == EQ {
			s.activeRows[i] = true
			continue
		}
		s.nSlack++
		// Only inequality rows may start inactive.
		s.activeRows[i] = !s.lazyMode
		if s.lazyMode {
			s.nInactive++
		}
	}
	// Worst case: every row active with its slack.
	s.colCap = a.NumVars + s.mAll
	s.slackCoef = grow(s.slackCoef, s.mAll)

	s.basis = grow(s.basis, s.mAll)
	s.rowOf = grow(s.rowOf, s.colCap)
	s.inBasis = grow(s.inBasis, s.colCap)
	s.upper = grow(s.upper, s.colCap)
	s.baseU = grow(s.baseU, s.colCap)
	s.flipped = grow(s.flipped, s.colCap)
	s.d = grow(s.d, s.colCap)
	s.fixVal = grow(s.fixVal, a.NumVars)
	for j := range s.fixVal[:a.NumVars] {
		s.fixVal[j] = fixFree
	}
	s.released = grow(s.released, a.NumVars)[:0]

	s.beff = grow(s.beff, s.mAll)
	s.xB = grow(s.xB, s.mAll)
	s.alpha = grow(s.alpha, s.mAll)
	s.rho = grow(s.rho, s.mAll)
	s.work = grow(s.work, s.mAll)
	s.accV = grow(s.accV, s.colCap)
	s.accMark = grow(s.accMark, s.colCap)
	clear(s.accMark)
	s.accRound = 0
	s.accTouch = grow(s.accTouch, s.colCap)[:0]
	s.driftTries = 0

	n := max(a.NumVars, 1)
	s.xbuf = grow(s.xbuf, n)
	s.snap.valid = false

	s.lu.init(s.mAll)
	// Every inequality row a lazy Load leaves inactive may border the
	// factors later; ineqNNZ is their coefficient count.
	s.eta.init(s.mAll, s.nInactive, ineqNNZ)

	s.scanX = grow(s.scanX, n)
	s.scanValid = false
	s.rowMark = grow(s.rowMark, s.mAll)
	clear(s.rowMark)
	s.rowRound = 0
	return nil
}

// buildCSC checks the loaded program — every upper bound finite and
// non-negative (the dual simplex needs a bound to flip a column to), costs,
// coefficients and right-hand sides finite, variable indices in range — and
// transposes its rows into the compressed-sparse-column index of the
// structural constraint matrix, in the same pass. It returns the
// coefficient count of the inequality rows. Row indices are original row
// numbers; activity is resolved through rowSlot at solve time.
func (s *Solver) buildCSC() (ineqNNZ int, err error) {
	a := s.rows
	n := s.nStruct
	for j, u := range a.Upper {
		if !finite(u) || u < 0 {
			return 0, fmt.Errorf("lp: variable %d has no finite non-negative upper bound (%v)", j, u)
		}
		if c := a.Cost[j]; !finite(c) {
			return 0, fmt.Errorf("lp: variable %d has non-finite cost %v", j, c)
		}
	}
	start, vars, coefs := a.Start, a.Var, a.Coef
	for i, rhs := range a.RHS {
		if !finite(rhs) {
			return 0, fmt.Errorf("lp: constraint %d has non-finite right-hand side", i)
		}
		if a.Sense[i] != EQ {
			ineqNNZ += int(start[i+1] - start[i])
		}
	}
	// Counting column j at cc[j+1] and then prefix-summing leaves the start
	// of column j at cc[j]. Filling advances cc[j] to the start of column
	// j+1, so the starts end up one column to the right.
	cc := grow(s.ccStart, n+1)
	clear(cc)
	for k, j := range vars {
		if j < 0 || int(j) >= n {
			i, _ := slices.BinarySearch(start, int32(k)+1)
			return 0, fmt.Errorf("lp: constraint %d references variable %d outside [0,%d)", i-1, j, n)
		}
		cc[j+1]++
	}
	for j := 1; j <= n; j++ {
		cc[j] += cc[j-1]
	}
	nnz := int(cc[n])
	ccRow := grow(s.ccRow, nnz)
	ccCoef := grow(s.ccCoef, nnz)
	// Filling in row order lists each column's rows ascending.
	i := int32(0)
	for k, j := range vars {
		for int32(k) >= start[i+1] {
			i++
		}
		cf := coefs[k]
		if !finite(cf) {
			return 0, fmt.Errorf("lp: constraint %d has non-finite coefficient on variable %d", i, j)
		}
		c := cc[j]
		ccRow[c] = i
		ccCoef[c] = cf
		cc[j] = c + 1
	}
	copy(cc[1:], cc[:n])
	cc[0] = 0
	s.ccStart, s.ccRow, s.ccCoef = cc, ccRow, ccCoef
	return ineqNNZ, nil
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }

// NumVars returns the structural variable count of the loaded problem.
func (s *Solver) NumVars() int { return s.nStruct }

// SaveBasis snapshots the solver's logical state — basis, bounds, fix set,
// orientation, active rows, reduced costs — into a solver-owned arena. One
// snapshot is held at a time; saving again overwrites it. The factorization
// is deliberately not snapshotted: it is a cache, rebuilt on demand after a
// restore, so the copy is O(n + m) instead of O(LU nonzeros).
func (s *Solver) SaveBasis() {
	if !s.warm {
		return
	}
	sp := &s.snap
	sp.valid = true
	sp.m = s.m
	sp.n = s.n
	sp.nInactive = s.nInactive
	sp.activeRows = grow(sp.activeRows, s.mAll)
	copy(sp.activeRows, s.activeRows[:s.mAll])
	sp.slotRow = grow(sp.slotRow, s.m)
	copy(sp.slotRow, s.slotRow[:s.m])
	sp.slackCoef = grow(sp.slackCoef, s.m)
	copy(sp.slackCoef, s.slackCoef[:s.m])
	sp.beff = grow(sp.beff, s.m)
	copy(sp.beff, s.beff[:s.m])
	sp.basis = grow(sp.basis, s.m)
	copy(sp.basis, s.basis[:s.m])
	sp.rowOf = grow(sp.rowOf, s.n)
	copy(sp.rowOf, s.rowOf[:s.n])
	sp.inBasis = grow(sp.inBasis, s.n)
	copy(sp.inBasis, s.inBasis[:s.n])
	sp.upper = grow(sp.upper, s.n)
	copy(sp.upper, s.upper[:s.n])
	sp.flipped = grow(sp.flipped, s.n)
	copy(sp.flipped, s.flipped[:s.n])
	sp.fixVal = grow(sp.fixVal, s.nStruct)
	copy(sp.fixVal, s.fixVal[:s.nStruct])
	sp.d = grow(sp.d, s.n)
	copy(sp.d, s.d[:s.n])
}

// RestoreBasis reinstates the snapshot taken by SaveBasis, including its
// fix set and active-row set, and reports whether one was available. The
// caller's view of applied fixes must be reset to the snapshot's. The
// factorization is marked stale; the next ReSolve refactorizes.
//
//sqpr:hotpath
func (s *Solver) RestoreBasis() bool {
	sp := &s.snap
	if !sp.valid {
		return false
	}
	s.m = sp.m
	s.n = sp.n
	s.nInactive = sp.nInactive
	s.scanValid = false // the restored point differs from the scanned one
	s.released = s.released[:0]
	copy(s.activeRows[:s.mAll], sp.activeRows)
	copy(s.slotRow[:sp.m], sp.slotRow)
	copy(s.slackCoef[:sp.m], sp.slackCoef)
	for i := 0; i < s.mAll; i++ {
		s.rowSlot[i] = -1
	}
	for t := 0; t < sp.m; t++ {
		s.rowSlot[sp.slotRow[t]] = int32(t)
	}
	copy(s.beff[:sp.m], sp.beff)
	copy(s.basis[:sp.m], sp.basis)
	copy(s.rowOf[:sp.n], sp.rowOf)
	copy(s.inBasis[:sp.n], sp.inBasis)
	copy(s.upper[:sp.n], sp.upper)
	copy(s.flipped[:sp.n], sp.flipped)
	copy(s.fixVal[:s.nStruct], sp.fixVal)
	copy(s.d[:sp.n], sp.d)
	s.factorValid = false
	s.xbValid = false
	s.warm = true
	if invariant.Enabled {
		s.checkBasis("RestoreBasis")
	}
	return true
}

// checkBasis verifies the basis/rowOf/inBasis cross-indexing that every
// pivot must preserve, plus the row↔slot mapping the sparse engine adds.
// Checked builds call it after basis restores and successful ReSolves;
// release builds compile it out. The companion factorization checks
// (checkResidual, checkDuals) run where the factors change: refactorize
// and bordered activation.
func (s *Solver) checkBasis(where string) {
	if !s.warm {
		// No warm-startable basis: the nStruct==0 shortcut in coldPass
		// answers from the constant rows alone and never builds one.
		return
	}
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if j < 0 || j >= s.n {
			invariant.Failf("lp: %s left basis[%d]=%d outside [0,%d)", where, i, j, s.n)
		}
		if s.rowOf[j] != i {
			invariant.Failf("lp: %s left basis[%d]=%d but rowOf[%d]=%d", where, i, j, j, s.rowOf[j])
		}
		if !s.inBasis[j] {
			invariant.Failf("lp: %s left basis[%d]=%d with inBasis[%d] false", where, i, j, j)
		}
	}
	for j := 0; j < s.n; j++ {
		if s.inBasis[j] && s.basis[s.rowOf[j]] != j {
			invariant.Failf("lp: %s left column %d marked basic but row %d holds %d", where, j, s.rowOf[j], s.basis[s.rowOf[j]])
		}
	}
	for t := 0; t < s.m; t++ {
		i := int(s.slotRow[t])
		if i < 0 || i >= s.mAll || int(s.rowSlot[i]) != t {
			invariant.Failf("lp: %s left slot %d mapped to row %d with rowSlot=%d", where, t, i, s.rowSlot[i])
		}
	}
}

// RowDual returns the dual multiplier of original constraint row i at the
// current (optimal) basis: the sensitivity ∂objective/∂RHS_i in the
// problem's minimisation space. Inactive lazy rows report 0.
//
//sqpr:hotpath
func (s *Solver) RowDual(i int) float64 {
	if i < 0 || i >= s.mAll || s.rowSlot[i] < 0 {
		return 0
	}
	// d_slack = −sc·y for the row a·x + sc·s = b with sc = +1 (LE, EQ) or
	// −1 (GE); the original-row multiplier is y, so y = −d_slack/sc.
	t := int(s.rowSlot[i])
	return -s.d[s.nStruct+t] / s.slackCoef[t]
}

// Fix pins structural variable j at 0 (atUpper false) or at its upper bound
// (atUpper true) without recompiling the problem. When the solver holds a
// warm basis the bound change is applied in place: the column is re-oriented
// if needed and its effective bound collapses to zero, leaving any primal
// infeasibility for the next ReSolve's dual simplex to repair.
//
//sqpr:hotpath
func (s *Solver) Fix(j int, atUpper bool) {
	want := fixZero
	if atUpper {
		want = fixUpper
	}
	if s.fixVal[j] == want {
		return
	}
	if s.warm {
		// Restore the true bound first so orientation flips use the real
		// width of the variable's range.
		s.upper[j] = s.baseU[j]
		if s.flipped[j] != atUpper {
			if r := s.rowOf[j]; r >= 0 {
				s.flipBasic(r)
			} else {
				s.toggleFlip(j)
				s.d[j] = -s.d[j]
				// The basic point moves by the flip width along B⁻¹a_j;
				// recompute xB from beff lazily rather than FTRAN per fix.
				s.xbValid = false
			}
		}
		s.upper[j] = 0
	}
	s.fixVal[j] = want
}

// Unfix releases a previously fixed variable back to its full [0, upper]
// range. The variable stays at the bound it was fixed at, which remains
// primal feasible; the next ReSolve bound-flips it if its reduced cost
// prefers the other bound, which keeps the basis dual feasible without a
// pivot.
//
//sqpr:hotpath
func (s *Solver) Unfix(j int) {
	if s.fixVal[j] == fixFree {
		return
	}
	s.fixVal[j] = fixFree
	if s.warm {
		s.upper[j] = s.baseU[j]
		s.released = append(s.released, int32(j)) //sqpr:amortized — cap NumVars from Load
	}
}

// ReSolve optimises the loaded problem under the current variable fixes
// with the bounded-variable dual simplex. From a warm basis it bound-flips
// the columns Unfix released whose reduced cost went negative, refreshes
// the factorization if stale and repairs primal feasibility; otherwise
// (first call, or after a fallback) it solves cold from the slack basis
// over the active rows (coldPass). Violated inactive rows are then
// activated and repaired until the point satisfies the full problem. The
// returned Solution's X aliases a solver-owned buffer valid until the next
// call. The steady-state warm path performs no heap allocation.
//
//sqpr:hotpath
func (s *Solver) ReSolve(opts Options) Solution {
	s.installOpts(opts)
	coldDone := false
	for {
		var st Status
		if !s.warm {
			st = s.coldPass()
			coldDone = true
		} else {
			// Released columns are boxed, so each flip succeeds.
			for _, j := range s.released {
				s.flipToDualFeasible(int(j))
			}
			s.released = s.released[:0]
			if !s.prepWarm() {
				// The restored/stale basis would not factorize: rebuild cold.
				s.stats.DriftRebuilds++
				s.warm = false
				continue
			}
			st = s.dualIterate()
		}
		switch st {
		case Optimal:
			x := s.extract()
			if s.nInactive > 0 && s.activateViolated(x) > 0 {
				if invariant.Enabled && s.factorValid {
					s.checkResidual("activation")
					s.checkDuals("activation")
				}
				continue // repair the newly active rows warm
			}
			// The zero-activation scan above certified the inactive rows;
			// only bounds and active rows remain to check.
			feas := s.checkFeasibleActive(x)
			if invariant.Enabled {
				s.checkBasis("ReSolve")
			}
			if !feas && !coldDone {
				// Numerical drift survived the factorization refreshes:
				// re-derive everything from the problem data so drift cannot
				// compound across nodes.
				s.stats.DriftRebuilds++
				s.warm = false
				continue
			}
			return Solution{
				Status:    Optimal,
				X:         x,
				Objective: s.rows.Objective(x),
				Feasible:  feas,
				Iters:     s.iters,
			}
		case Infeasible:
			// Dual unbounded: the current bound set admits no feasible
			// point. (Activating more rows can only shrink the feasible
			// region, so inactive rows cannot rescue it.) The basis stays
			// consistent, so later ReSolves stay warm.
			return Solution{Status: Infeasible, Iters: s.iters}
		default: // IterLimit, or stCold after a failed refactorize
			if s.expired() || coldDone {
				return Solution{Status: IterLimit, Iters: s.iters}
			}
			// Pivot budget exhausted on the warm path without an external
			// deadline (e.g. a degenerate dual cycle): fall back to a cold
			// solve with a fresh pivot budget on top of what was spent, so
			// the rebuild is not dead on arrival at the same limit.
			s.maxIters += s.iters
			s.warm = false
		}
	}
}

// prepWarm brings the factorization and basic solution up to date with the
// logical basis before warm pivoting starts; reports false when the basis
// would not factorize (caller falls back to a cold rebuild).
//
//sqpr:hotpath
func (s *Solver) prepWarm() bool {
	if !s.factorValid || s.eta.count >= s.etaLimit() {
		return s.refactorize()
	}
	if !s.xbValid {
		s.ftranXB()
	}
	return true
}

// ftranXB recomputes the basic solution xB = B⁻¹·beff through the current
// factors.
//
//sqpr:hotpath
func (s *Solver) ftranXB() {
	copy(s.xB[:s.m], s.beff[:s.m])
	s.ftran(s.xB)
	s.xbValid = true
}

// expired reports whether the deadline or context of the current call has
// lapsed.
//
//sqpr:hotpath
func (s *Solver) expired() bool {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	return s.ctx != nil && s.ctx.Err() != nil
}

//sqpr:hotpath
func (s *Solver) installOpts(opts Options) {
	s.deadline = opts.Deadline
	s.ctx = opts.Ctx
	s.maxIters = 200 * (s.mAll + s.nStruct + s.nSlack + 10)
	s.iters = 0
	s.bland = false
	s.stall = 0
	s.driftTries = 0
}

// activateViolated evaluates the inactive rows at x and warm-activates the
// violated ones; returns how many were activated. After a full first scan
// it runs incrementally: only rows containing a variable that moved since
// that variable's rows were last evaluated are re-evaluated — on SQPR's
// models a node re-solve moves a handful of variables while thousands of
// availability/acyclicity rows stay put.
//
//sqpr:hotpath
func (s *Solver) activateViolated(x []float64) int {
	count := 0
	if !s.scanValid {
		for i := 0; i < s.mAll; i++ {
			if !s.activeRows[i] && s.rows.violated(i, x) {
				s.activateRow(i)
				count++
			}
		}
		copy(s.scanX[:s.nStruct], x[:s.nStruct])
		s.scanValid = true
		return count
	}
	s.rowRound++
	round := s.rowRound
	for j := 0; j < s.nStruct; j++ {
		dx := x[j] - s.scanX[j]
		if dx < scanEps && dx > -scanEps {
			continue
		}
		s.scanX[j] = x[j]
		// The column lists every row of j; its EQ rows are always active.
		for _, ri := range s.ccRow[s.ccStart[j]:s.ccStart[j+1]] {
			i := int(ri)
			if s.rowMark[i] == round || s.activeRows[i] {
				s.rowMark[i] = round
				continue
			}
			s.rowMark[i] = round
			if s.rows.violated(i, x) {
				s.activateRow(i)
				count++
			}
		}
	}
	return count
}

// checkFeasibleActive verifies bounds and the *active* rows of the problem
// at x. Together with a zero-activation scan of the inactive rows it
// certifies full feasibility without re-evaluating the (far larger)
// inactive set a second time.
//
//sqpr:hotpath
func (s *Solver) checkFeasibleActive(x []float64) bool {
	a := s.rows
	for j, u := range a.Upper {
		if x[j] < -FeasTol || x[j] > u+FeasTol {
			return false
		}
	}
	for _, i := range s.slotRow[:s.m] {
		if a.violated(int(i), x) {
			return false
		}
	}
	return true
}

// activateRow appends inactive inequality row i to the warm basis: the row
// claims a fresh slot and slack column, its effective RHS is computed under
// the current orientation, and the slack becomes basic. The grown basis is
// block-triangular in the old one, so the existing reduced costs remain
// exact and dual feasibility survives activation; valid factors are
// bordered in place (border) rather than rebuilt, so the repair pivots that
// follow start from the factorization the wave found. Stale factors stay
// stale and the next prepWarm refactorizes over the grown basis.
//
//sqpr:hotpath
func (s *Solver) activateRow(i int) {
	col := s.n
	slot := s.m
	s.slackCoef[slot] = 1
	if s.rows.Sense[i] == GE {
		s.slackCoef[slot] = -1
	}
	// Scrub any stale column state (the slot may have been used before a
	// basis restore rewound the solver).
	s.upper[col] = math.Inf(1)
	s.baseU[col] = math.Inf(1)
	s.flipped[col] = false
	s.d[col] = 0
	s.rowSlot[i] = int32(slot)
	s.slotRow[slot] = int32(i)
	s.beff[slot] = s.flippedRHS(i)
	s.basis[slot] = col
	s.inBasis[col] = true
	s.rowOf[col] = slot
	s.n = col + 1
	s.m = slot + 1
	s.activeRows[i] = true
	s.nInactive--
	if s.factorValid {
		s.border(i, slot, s.slackCoef[slot])
	} else {
		s.xbValid = false
	}
}

// flippedRHS returns row i's right-hand side under the current
// orientation: minus the contribution of every column held in complement
// orientation x̄ = u − x.
//
//sqpr:hotpath
func (s *Solver) flippedRHS(i int) float64 {
	a := s.rows
	rhs := a.RHS[i]
	for k := a.Start[i]; k < a.Start[i+1]; k++ {
		if j := a.Var[k]; s.flipped[j] {
			rhs -= a.Coef[k] * s.baseU[j]
		}
	}
	return rhs
}

// extract reconstructs structural variable values in the original
// orientation, writing into the solver's reusable buffer. A nonbasic
// column sits exactly at a bound; only basic values are snapped onto a
// bound they miss by roundoff.
//
//sqpr:hotpath
func (s *Solver) extract() []float64 {
	x := s.xbuf[:s.nStruct]
	for j := range x {
		if s.flipped[j] {
			x[j] = s.baseU[j]
		} else {
			x[j] = 0
		}
	}
	for i, b := range s.basis[:s.m] {
		if b >= s.nStruct {
			continue
		}
		v := s.xB[i]
		u := s.baseU[b]
		if s.flipped[b] {
			v = u - v
		}
		if v < 0 && v > -1e-9 {
			v = 0
		}
		if v > u && v < u+1e-9 {
			v = u
		}
		x[b] = v
	}
	return x
}
