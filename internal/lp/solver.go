package lp

import (
	"context"
	"math"
	"time"

	"sqpr/internal/invariant"
)

// Solver is a reusable sparse revised-simplex engine. Instead of carrying a
// dense tableau, it stores the constraint matrix once in compressed-sparse-
// column form and represents the basis inverse implicitly: an LU
// factorization of the basis matrix refreshed every few dozen pivots, plus a
// product-form eta file for the pivots in between. Every tableau quantity
// the simplex method needs is recovered on demand by two sparse triangular
// solves — FTRAN (B⁻¹·a, entering columns and basic values) and BTRAN
// (B⁻ᵀ·e, pivot rows and duals) — so per-pivot cost scales with the
// nonzeros involved, not with rows × columns.
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
	prob *Problem

	mAll    int // total constraint rows of the problem
	m       int // active rows (= basis size)
	nStruct int // structural variables
	nSlack  int // inequality rows of the problem (potential slack columns)

	// colCap is the worst-case live column count, nStruct + nSlack + mAll;
	// arenas are sized for it up front, so warm-activating rows never
	// reallocates.
	colCap int

	n         int // live total columns (structural + aux)
	nArtStart int // first artificial column at the last cold rebuild

	lazyMode   bool
	activeRows []bool // per original row
	nInactive  int

	// Constraint matrix in compressed-sparse-column form over the structural
	// variables: column j's entries are ccRow/ccCoef[ccStart[j]:ccStart[j+1]]
	// with ccRow holding *original row indices* (not basis slots), so the
	// matrix never needs rebuilding as lazy rows activate.
	ccStart []int32
	ccRow   []int32
	ccCoef  []float64

	// Active-row bookkeeping. Each active row owns a basis "slot" in [0, m);
	// slots are assigned at rebuild/activation time and stay stable until
	// the next cold rebuild or basis restore.
	rowSlot []int32 // original row -> slot, -1 when inactive
	slotRow []int32 // slot -> original row
	slackOf []int32 // original row -> slack column, -1 when none

	// Aux columns (slacks and artificials) are the columns >= nStruct. Each
	// is a singleton: coefficient auxCoef in the row at slot auxSlot.
	auxSlot  []int32
	auxCoef  []float64
	auxIsArt []bool

	basis   []int // slot -> basic column
	rowOf   []int // column -> slot, -1 when nonbasic
	inBasis []bool
	upper   []float64 // effective bound (0 for fixed variables)
	baseU   []float64 // bound as loaded, used for orientation arithmetic
	flipped []bool    // column in complement orientation x̄ = u − x
	banned  []bool    // excluded from entering (artificials, fixed variables)
	fixVal  []int8    // structural fix state
	d       []float64 // reduced costs of the current basis

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
	phase1      bool // costOf prices the phase-1 objective
	driftTries  int
	stats       FactorStats

	// Solve scratch, all preallocated by Load to keep the warm path free of
	// heap allocation: alpha/rho are FTRAN/BTRAN result vectors, work is the
	// triangular-solve permutation buffer, accV/accMark/accTouch hold the
	// sparse pivot row, cand the pricing candidate list.
	alpha    []float64
	rho      []float64
	work     []float64
	accV     []float64
	accMark  []int
	accTouch []int32
	accRound int
	cand     []int32
	candPos  int

	xbuf []float64 // extraction buffer

	iters    int
	maxIters int
	deadline time.Time
	ctx      context.Context
	bland    bool
	stall    int

	// Incremental lazy-row scanning: a var→row CSR index plus per-variable
	// last-scanned values, so a re-solve only re-evaluates rows whose
	// variables moved.
	varRowsStart []int
	varRowsList  []int32
	scanX        []float64
	scanValid    bool
	rowMark      []int
	rowRound     int

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
		nArtStart  int
		nInactive  int
		activeRows []bool
		slackOf    []int32
		slotRow    []int32
		auxSlot    []int32
		auxCoef    []float64
		auxIsArt   []bool
		beff       []float64
		basis      []int
		rowOf      []int
		inBasis    []bool
		upper      []float64
		flipped    []bool
		banned     []bool
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
// (with a small floor). Applying the eta file costs O(count · m), so on a
// small active basis letting it grow to the full interval makes every
// BTRAN/FTRAN pay for dozens of stale pivots when a from-scratch
// refactorize costs almost nothing; on large bases the full interval wins
// because refactorizes there are the expensive side.
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

// Load compiles p into the solver's arenas, growing them only when p is
// larger than any previously loaded problem. All variables start free and
// the first ReSolve performs a cold solve. The solver keeps a reference to p
// (it does not copy constraint data) and never mutates it.
func (s *Solver) Load(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.prob = p
	s.warm = false
	s.factorValid = false
	s.xbValid = false
	s.phase1 = false
	s.stats = FactorStats{}
	s.mAll = len(p.Cons)
	s.m = 0
	s.nStruct = p.NumVars

	s.slackOf = growI32(s.slackOf, s.mAll)
	s.rowSlot = growI32(s.rowSlot, s.mAll)
	s.slotRow = growI32(s.slotRow, s.mAll)
	s.activeRows = growB(s.activeRows, s.mAll)
	s.nSlack = 0
	s.nInactive = 0
	for i := range p.Cons {
		// Slack columns are assigned when a row enters the basis (rebuild,
		// or warm activation), not up front: the live column count then
		// scales with the rows actually active, not with the thousands of
		// lazy rows that never bind.
		s.slackOf[i] = -1
		s.rowSlot[i] = -1
		if p.Cons[i].Sense == EQ {
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
	// Worst case: every row active with a slack plus one artificial each.
	s.colCap = p.NumVars + s.nSlack + s.mAll

	auxCap := s.colCap - p.NumVars
	s.auxSlot = growI32(s.auxSlot, auxCap)
	s.auxCoef = growF(s.auxCoef, auxCap)
	s.auxIsArt = growB(s.auxIsArt, auxCap)

	s.basis = growI(s.basis, s.mAll)
	s.rowOf = growI(s.rowOf, s.colCap)
	s.inBasis = growB(s.inBasis, s.colCap)
	s.upper = growF(s.upper, s.colCap)
	s.baseU = growF(s.baseU, s.colCap)
	s.flipped = growB(s.flipped, s.colCap)
	s.banned = growB(s.banned, s.colCap)
	s.d = growF(s.d, s.colCap)
	s.fixVal = growI8(s.fixVal, p.NumVars)
	for j := range s.fixVal[:p.NumVars] {
		s.fixVal[j] = fixFree
	}

	s.beff = growF(s.beff, s.mAll)
	s.xB = growF(s.xB, s.mAll)
	s.alpha = growF(s.alpha, s.mAll)
	s.rho = growF(s.rho, s.mAll)
	s.work = growF(s.work, s.mAll)
	s.accV = growF(s.accV, s.colCap)
	s.accMark = growI(s.accMark, s.colCap)
	for i := range s.accMark[:s.colCap] {
		s.accMark[i] = 0
	}
	s.accRound = 0
	s.accTouch = growI32(s.accTouch, s.colCap)[:0]
	s.cand = growI32(s.cand, s.colCap)[:0]
	s.candPos = 0
	s.driftTries = 0

	n := p.NumVars
	if n == 0 {
		n = 1
	}
	s.xbuf = growF(s.xbuf, n)
	s.snap.valid = false

	s.buildCSC()
	s.lu.init(s.mAll)

	// Var→row CSR over the inequality rows.
	s.scanX = growF(s.scanX, n)
	s.scanValid = false
	s.rowMark = growI(s.rowMark, s.mAll)
	for i := range s.rowMark[:s.mAll] {
		s.rowMark[i] = 0
	}
	s.rowRound = 0
	s.varRowsStart = growI(s.varRowsStart, p.NumVars+1)
	for j := range s.varRowsStart[:p.NumVars+1] {
		s.varRowsStart[j] = 0
	}
	nnz := 0
	for i := range p.Cons {
		if p.Cons[i].Sense == EQ {
			continue
		}
		for _, t := range p.Cons[i].Terms {
			s.varRowsStart[t.Var+1]++
			nnz++
		}
	}
	for j := 1; j <= p.NumVars; j++ {
		s.varRowsStart[j] += s.varRowsStart[j-1]
	}
	// Every inequality row a lazy Load leaves inactive may border the
	// factors later; nnz is their coefficient count.
	s.eta.init(s.mAll, s.nInactive, nnz)
	if cap(s.varRowsList) < nnz {
		s.varRowsList = make([]int32, nnz)
	}
	s.varRowsList = s.varRowsList[:nnz]
	// Fill using varRowsStart as the write cursor, then shift it back.
	for i := range p.Cons {
		if p.Cons[i].Sense == EQ {
			continue
		}
		for _, t := range p.Cons[i].Terms {
			s.varRowsList[s.varRowsStart[t.Var]] = int32(i)
			s.varRowsStart[t.Var]++
		}
	}
	for j := p.NumVars; j > 0; j-- {
		s.varRowsStart[j] = s.varRowsStart[j-1]
	}
	s.varRowsStart[0] = 0
	return nil
}

// buildCSC builds the compressed-sparse-column index of the structural
// constraint matrix. Row indices are original row numbers; activity is
// resolved through rowSlot at solve time.
func (s *Solver) buildCSC() {
	p := s.prob
	n := s.nStruct
	s.ccStart = growI32(s.ccStart, n+1)
	for j := 0; j <= n; j++ {
		s.ccStart[j] = 0
	}
	nnz := 0
	for i := 0; i < s.mAll; i++ {
		for _, t := range p.Cons[i].Terms {
			s.ccStart[t.Var+1]++
			nnz++
		}
	}
	for j := 1; j <= n; j++ {
		s.ccStart[j] += s.ccStart[j-1]
	}
	if cap(s.ccRow) < nnz {
		s.ccRow = make([]int32, nnz)
		s.ccCoef = make([]float64, nnz)
	}
	s.ccRow = s.ccRow[:nnz]
	s.ccCoef = s.ccCoef[:nnz]
	for i := 0; i < s.mAll; i++ {
		for _, t := range p.Cons[i].Terms {
			c := s.ccStart[t.Var]
			s.ccRow[c] = int32(i)
			s.ccCoef[c] = t.Coef
			s.ccStart[t.Var] = c + 1
		}
	}
	for j := n; j > 0; j-- {
		s.ccStart[j] = s.ccStart[j-1]
	}
	s.ccStart[0] = 0
}

// NumVars returns the structural variable count of the loaded problem.
func (s *Solver) NumVars() int { return s.nStruct }

// Detach drops the solver's reference to the loaded problem and invalidates
// any saved basis, keeping only the raw arenas. Pools of idle solvers call
// this so a recycled solver cannot keep a dead caller's constraint storage
// reachable; the next Load makes the solver usable again.
func (s *Solver) Detach() {
	s.prob = nil
	s.warm = false
	s.snap.valid = false
}

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
	sp.nArtStart = s.nArtStart
	sp.nInactive = s.nInactive
	sp.activeRows = growB(sp.activeRows, s.mAll)
	copy(sp.activeRows, s.activeRows[:s.mAll])
	sp.slackOf = growI32(sp.slackOf, s.mAll)
	copy(sp.slackOf, s.slackOf[:s.mAll])
	sp.slotRow = growI32(sp.slotRow, s.m)
	copy(sp.slotRow, s.slotRow[:s.m])
	naux := s.n - s.nStruct
	sp.auxSlot = growI32(sp.auxSlot, naux)
	copy(sp.auxSlot, s.auxSlot[:naux])
	sp.auxCoef = growF(sp.auxCoef, naux)
	copy(sp.auxCoef, s.auxCoef[:naux])
	sp.auxIsArt = growB(sp.auxIsArt, naux)
	copy(sp.auxIsArt, s.auxIsArt[:naux])
	sp.beff = growF(sp.beff, s.m)
	copy(sp.beff, s.beff[:s.m])
	sp.basis = growI(sp.basis, s.m)
	copy(sp.basis, s.basis[:s.m])
	sp.rowOf = growI(sp.rowOf, s.n)
	copy(sp.rowOf, s.rowOf[:s.n])
	sp.inBasis = growB(sp.inBasis, s.n)
	copy(sp.inBasis, s.inBasis[:s.n])
	sp.upper = growF(sp.upper, s.n)
	copy(sp.upper, s.upper[:s.n])
	sp.flipped = growB(sp.flipped, s.n)
	copy(sp.flipped, s.flipped[:s.n])
	sp.banned = growB(sp.banned, s.n)
	copy(sp.banned, s.banned[:s.n])
	sp.fixVal = growI8(sp.fixVal, s.nStruct)
	copy(sp.fixVal, s.fixVal[:s.nStruct])
	sp.d = growF(sp.d, s.n)
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
	s.nArtStart = sp.nArtStart
	s.nInactive = sp.nInactive
	s.scanValid = false // the restored point differs from the scanned one
	copy(s.activeRows[:s.mAll], sp.activeRows)
	copy(s.slackOf[:s.mAll], sp.slackOf)
	copy(s.slotRow[:sp.m], sp.slotRow)
	for i := 0; i < s.mAll; i++ {
		s.rowSlot[i] = -1
	}
	for t := 0; t < sp.m; t++ {
		s.rowSlot[sp.slotRow[t]] = int32(t)
	}
	naux := sp.n - s.nStruct
	copy(s.auxSlot[:naux], sp.auxSlot)
	copy(s.auxCoef[:naux], sp.auxCoef)
	copy(s.auxIsArt[:naux], sp.auxIsArt)
	copy(s.beff[:sp.m], sp.beff)
	copy(s.basis[:sp.m], sp.basis)
	copy(s.rowOf[:sp.n], sp.rowOf)
	copy(s.inBasis[:sp.n], sp.inBasis)
	copy(s.upper[:sp.n], sp.upper)
	copy(s.flipped[:sp.n], sp.flipped)
	copy(s.banned[:sp.n], sp.banned)
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
// problem's minimisation space. Inactive lazy rows and equality rows (whose
// slack column is not kept) report 0.
//
//sqpr:hotpath
func (s *Solver) RowDual(i int) float64 {
	if i < 0 || i >= s.mAll || !s.activeRows[i] {
		return 0
	}
	slack := s.slackOf[i]
	if slack < 0 {
		return 0
	}
	// d_slack = −sc·y for the row a·x + sc·s = b with sc = +1 (LE) or −1
	// (GE); the original-row multiplier is y, so y = −d_slack/sc.
	if s.prob.Cons[i].Sense == GE {
		return s.d[slack]
	}
	return -s.d[slack]
}

// Fix pins structural variable j at 0 (atUpper false) or at its upper bound
// (atUpper true) without recompiling the problem. When the solver holds a
// warm basis the bound change is applied in place: the column is re-oriented
// if needed and its effective bound collapses to zero, leaving any primal
// infeasibility for the next ReSolve's dual simplex to repair. Fixing at
// the upper bound requires a finite upper bound.
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
	s.banned[j] = true
}

// Unfix releases a previously fixed variable back to its full [0, upper]
// range. The variable's current position (whichever bound it was fixed at)
// remains a valid nonbasic point, so no pivoting is needed.
//
//sqpr:hotpath
func (s *Solver) Unfix(j int) {
	if s.fixVal[j] == fixFree {
		return
	}
	s.fixVal[j] = fixFree
	s.banned[j] = false
	if s.warm {
		s.upper[j] = s.baseU[j]
	}
}

// ReSolve optimises the loaded problem under the current variable fixes.
// From a warm basis it refreshes the factorization if stale and runs
// bounded-variable dual simplex plus a primal clean-up; otherwise (first
// call, or after a fallback) it performs a cold two-phase primal solve over
// the active rows. Violated inactive rows are then activated and repaired
// until the point satisfies the full problem. The returned Solution's X
// aliases a solver-owned buffer valid until the next call. The steady-state
// warm path performs no heap allocation.
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
		} else if !s.prepWarm() {
			// The restored/stale basis would not factorize: rebuild cold.
			s.stats.DriftRebuilds++
			s.warm = false
			continue
		} else {
			st = s.dualIterate()
			if st == Optimal {
				// Dual pivots restored primal feasibility. Bound
				// *relaxations* (Unfix) can leave a released column with a
				// negative reduced cost, so finish with primal pivots; when
				// the basis is already dual feasible this is a no-op.
				st = s.iterate()
			}
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
				Objective: s.prob.Objective(x),
				Feasible:  feas,
				Iters:     s.iters,
			}
		case Infeasible:
			// Dual unbounded or phase 1 stuck: the current bound set admits
			// no feasible point. (Activating more rows can only shrink the
			// feasible region, so inactive rows cannot rescue it.) The basis
			// stays consistent, so later ReSolves stay warm.
			return Solution{Status: Infeasible, Iters: s.iters}
		case Unbounded:
			if s.nInactive > 0 {
				// The descent ray may be cut off by rows not yet active;
				// bring everything in and restart cold.
				s.activateAll()
				s.warm = false
				coldDone = false
				continue
			}
			return Solution{Status: Unbounded, X: s.extract(), Iters: s.iters}
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
	s.maxIters = opts.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 200 * (s.mAll + s.nStruct + s.nSlack + 10)
	}
	s.iters = 0
	s.bland = false
	s.stall = 0
	s.driftTries = 0
	// Deterministic pricing start: every solve prices from column 0, so
	// reduced-cost ties break toward low indices — the same bias as a full
	// ascending Dantzig scan — regardless of where the previous solve's
	// pricing cursor stopped. The cursor still rotates within the solve.
	s.candPos = 0
	s.cand = s.cand[:0]
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
			if !s.activeRows[i] && s.rowViolated(i, x) {
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
		for _, ri := range s.varRowsList[s.varRowsStart[j]:s.varRowsStart[j+1]] {
			i := int(ri)
			if s.rowMark[i] == round || s.activeRows[i] {
				s.rowMark[i] = round
				continue
			}
			s.rowMark[i] = round
			if s.rowViolated(i, x) {
				s.activateRow(i)
				count++
			}
		}
	}
	return count
}

// rowViolated evaluates inequality row i at x against its tolerance.
//
//sqpr:hotpath
func (s *Solver) rowViolated(i int, x []float64) bool {
	c := &s.prob.Cons[i]
	lhs := Eval(c.Terms, x)
	tol := FeasTol * (1 + math.Abs(c.RHS))
	switch c.Sense {
	case LE:
		return lhs > c.RHS+tol
	case GE:
		return lhs < c.RHS-tol
	}
	return false
}

// checkFeasibleActive verifies bounds and the *active* rows of the problem
// at x. Together with a zero-activation scan of the inactive rows it
// certifies full feasibility without re-evaluating the (far larger)
// inactive set a second time.
//
//sqpr:hotpath
func (s *Solver) checkFeasibleActive(x []float64) bool {
	p := s.prob
	for j := 0; j < p.NumVars; j++ {
		if x[j] < -FeasTol || x[j] > p.upper(j)+FeasTol {
			return false
		}
	}
	for i := 0; i < s.mAll; i++ {
		if !s.activeRows[i] {
			continue
		}
		c := &p.Cons[i]
		lhs := Eval(c.Terms, x)
		tol := FeasTol * (1 + math.Abs(c.RHS))
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// activateAll brings every inactive row in (used before an Unbounded
// restart; the subsequent pass is cold, so a plain marking suffices).
func (s *Solver) activateAll() {
	for i := range s.activeRows[:s.mAll] {
		s.activeRows[i] = true
	}
	s.nInactive = 0
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
	c := &s.prob.Cons[i]
	col := s.n
	slot := s.m
	aux := col - s.nStruct
	s.slackOf[i] = int32(col)
	s.auxSlot[aux] = int32(slot)
	s.auxIsArt[aux] = false
	if c.Sense == LE {
		s.auxCoef[aux] = 1
	} else {
		s.auxCoef[aux] = -1
	}
	// Scrub any stale column state (the slot may have been used before a
	// basis restore rewound the solver).
	s.upper[col] = math.Inf(1)
	s.baseU[col] = math.Inf(1)
	s.flipped[col] = false
	s.banned[col] = false
	s.d[col] = 0
	s.rowSlot[i] = int32(slot)
	s.slotRow[slot] = int32(i)
	rhs := c.RHS
	for _, tm := range c.Terms {
		if s.flipped[tm.Var] {
			// Column tm.Var is in complement orientation x̄ = u − x.
			rhs -= tm.Coef * s.baseU[tm.Var]
		}
	}
	s.beff[slot] = rhs
	s.basis[slot] = col
	s.inBasis[col] = true
	s.rowOf[col] = slot
	s.n = col + 1
	s.m = slot + 1
	s.activeRows[i] = true
	s.nInactive--
	if s.factorValid {
		s.border(c, slot, s.auxCoef[aux])
	} else {
		s.xbValid = false
	}
}

// extract reconstructs structural variable values in the original
// orientation, writing into the solver's reusable buffer.
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
		if s.flipped[b] {
			v = s.baseU[b] - v
		}
		x[b] = v
	}
	for j := range x {
		v := x[j]
		if v < 0 && v > -1e-9 {
			v = 0
		}
		if u := s.baseU[j]; !math.IsInf(u, 1) && v > u && v < u+1e-9 {
			v = u
		}
		x[j] = v
	}
	return x
}
