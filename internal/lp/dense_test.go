package lp

import (
	"context"
	"math"
	"time"

	"sqpr/internal/invariant"
)

// The oracle's cold solve is a two-phase primal simplex, which needs a
// phase-1 zero test and can end unbounded; the sparse Solver, a dual
// simplex over boxed columns only, has neither.
const (
	zeroTol          = 1e-9 // phase-1 objective zero test
	unbounded Status = IterLimit + 1
)

// DenseSolver is the dense-tableau engine the sparse Solver replaced, kept
// in a test file as the oracle of the equivalence suite (equiv_test.go,
// activation_test.go): no non-test code refers to it, and the hotpath
// annotations below are inert here (sqpr-vet reads non-test files only).
//
// It is a reusable, stateful LP solver over one loaded Problem. It owns
// a persistent arena (dense tableau rows, right-hand side, basis, reduced
// costs) that is sized once per Load and reused across re-solves, so the
// steady-state ReSolve path performs no heap allocation.
//
// The intended lifecycle is the branch-and-bound inner loop of
// internal/milp:
//
//	s := lp.NewDenseSolver()
//	s.SetLazy(true)               // optional: lazy row activation
//	s.Load(&prob)                 // compile once
//	sol := s.ReSolve(opts)        // cold solve (two-phase primal)
//	s.Fix(j, true)                // tighten one bound in place
//	sol = s.ReSolve(opts)         // warm re-solve (dual simplex)
//	s.Unfix(j)                    // backtrack
//
// After a successful solve the tableau holds an optimal basis that is both
// primal and dual feasible. Fixing or unfixing variable bounds preserves
// dual feasibility (the objective is unchanged), so a subsequent ReSolve
// only needs dual-simplex pivots to repair primal feasibility — typically a
// handful of pivots instead of a cold two-phase solve. On iteration trouble
// or numerical drift the solver transparently falls back to a cold rebuild,
// so ReSolve is never less correct than Solve.
//
// In lazy mode (SetLazy), inequality rows start inactive: the solver
// optimises over the active subset, evaluates the inactive rows against the
// candidate optimum, and warm-activates only the violated ones — an
// activated row enters with its slack basic and primal-infeasible, which is
// exactly the shape dual simplex repairs. SQPR's planning LPs have
// thousands of availability/acyclicity rows of which only a handful ever
// bind, so the active tableau stays an order of magnitude smaller than the
// full problem.
//
// Solutions returned by ReSolve alias solver-owned buffers: the X slice is
// only valid until the next call on the same DenseSolver. Callers that retain a
// point must copy it. A DenseSolver is not safe for concurrent use; independent
// DenseSolver instances are independent.
type DenseSolver struct {
	prob *Problem

	mAll    int // total constraint rows of the problem
	m       int // active tableau rows
	nStruct int // structural variables
	nSlack  int // inequality rows of the problem (potential slack columns)
	stride  int // allocated row width (worst-case column count)

	n         int // live total columns (structural+slack+artificial)
	nArtStart int // first artificial column

	lazyMode   bool
	activeRows []bool // per original row
	nInactive  int

	rowsBuf []float64   // mAll × stride backing store
	rows    [][]float64 // row views into rowsBuf
	rhs     []float64
	basis   []int
	rowOf   []int // row of each basic variable, -1 when nonbasic
	inBasis []bool
	upper   []float64 // effective bound (0 for fixed variables)
	baseU   []float64 // bound as loaded, used for orientation arithmetic
	flipped []bool
	banned  []bool // excluded from entering (artificials, fixed variables)
	fixVal  []int8 // structural fix state
	d       []float64
	cbuf    []float64 // objective scratch for installCosts
	slackOf []int
	xbuf    []float64 // extraction buffer

	iters    int
	maxIters int
	deadline time.Time
	ctx      context.Context
	bland    bool
	stall    int

	// Incremental lazy-row scanning: varRows is a CSR index from structural
	// variable to the inequality rows it appears in; scanX remembers, per
	// variable, the value at which that variable's rows were last evaluated.
	// A re-solve only re-evaluates rows whose variables moved since their
	// last evaluation (beyond scanEps, which accumulates in scanX so drift
	// cannot creep past the feasibility tolerance unchecked). scanValid
	// marks that every inactive row was satisfied at scanX.
	varRowsStart []int
	varRowsList  []int32
	scanX        []float64
	scanValid    bool
	rowMark      []int // round-stamped per-row dedup for the scan
	rowRound     int

	// warm records that the tableau holds a dual-feasible basis from a
	// completed solve, so ReSolve may start with dual simplex.
	warm bool

	// snap is the saved-basis arena of SaveBasis/RestoreBasis. Restoring a
	// saved optimal basis and then only *tightening* bounds keeps the
	// re-solve in pure dual simplex, which is the cheap path; branch-and-
	// bound uses this to jump between subtrees without primal re-solves.
	snap struct {
		valid      bool
		m          int
		n          int
		nArtStart  int
		nInactive  int
		activeRows []bool
		slackOf    []int
		rowsBuf    []float64
		rhs        []float64
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

// NewDenseSolver returns an empty solver; call Load before solving.
func NewDenseSolver() *DenseSolver { return &DenseSolver{} }

// SetLazy toggles lazy row activation for subsequent Loads. Must be called
// before Load.
func (s *DenseSolver) SetLazy(on bool) { s.lazyMode = on }

// Load compiles p into the solver's arena, growing it only when p is larger
// than any previously loaded problem. All variables start free and the
// first ReSolve performs a cold solve. The solver keeps a reference to p
// (it does not copy constraint data) and never mutates it.
func (s *DenseSolver) Load(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.prob = p
	s.warm = false
	s.mAll = len(p.Cons)
	s.m = 0
	s.nStruct = p.NumVars

	s.slackOf = growI(s.slackOf, s.mAll)
	s.activeRows = growB(s.activeRows, s.mAll)
	s.nSlack = 0
	s.nInactive = 0
	for i := range p.Cons {
		// Slack columns are assigned when a row enters the tableau
		// (rebuild, or warm activation), not up front: the live column
		// count — and with it the cost of every pivot — then scales with
		// the rows actually active, not with the thousands of lazy rows
		// that never bind.
		s.slackOf[i] = -1
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
	s.stride = p.NumVars + s.nSlack + s.mAll

	// The dense tableau is by far the largest allocation (gigabytes on
	// batch models); grow it geometrically so a sequence of solves over
	// slightly-growing models reallocates O(log) times instead of paying a
	// fresh multi-gigabyte clear-and-fault on every high-water mark.
	if need := s.mAll * s.stride; cap(s.rowsBuf) < need {
		s.rowsBuf = make([]float64, need+need/2)
	}
	s.rowsBuf = s.rowsBuf[:s.mAll*s.stride]
	if cap(s.rows) < s.mAll {
		s.rows = make([][]float64, s.mAll)
	}
	s.rows = s.rows[:s.mAll]
	for i := 0; i < s.mAll; i++ {
		s.rows[i] = s.rowsBuf[i*s.stride : (i+1)*s.stride]
	}
	s.rhs = growF(s.rhs, s.mAll)
	s.basis = growI(s.basis, s.mAll)
	s.rowOf = growI(s.rowOf, s.stride)
	s.inBasis = growB(s.inBasis, s.stride)
	s.upper = growF(s.upper, s.stride)
	s.baseU = growF(s.baseU, s.stride)
	s.flipped = growB(s.flipped, s.stride)
	s.banned = growB(s.banned, s.stride)
	s.d = growF(s.d, s.stride)
	s.cbuf = growF(s.cbuf, s.stride)
	s.fixVal = growI8(s.fixVal, p.NumVars)
	for j := range s.fixVal {
		s.fixVal[j] = fixFree
	}
	n := p.NumVars
	if n == 0 {
		n = 1
	}
	s.xbuf = growF(s.xbuf, n)
	s.snap.valid = false

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

// NumVars returns the structural variable count of the loaded problem.
func (s *DenseSolver) NumVars() int { return s.nStruct }

// Detach drops the solver's reference to the loaded problem and invalidates
// any saved basis, keeping only the raw arenas. Pools of idle solvers call
// this so a recycled solver cannot keep a dead caller's constraint storage
// reachable; the next Load makes the solver usable again.
func (s *DenseSolver) Detach() {
	s.prob = nil
	s.warm = false
	s.snap.valid = false
}

// SaveBasis snapshots the full tableau state — basis, bounds, fix set,
// orientation, active rows, reduced costs — into a solver-owned arena. One
// snapshot is held at a time; saving again overwrites it. The copy costs
// about as much as a single pivot.
func (s *DenseSolver) SaveBasis() {
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
	sp.slackOf = growI(sp.slackOf, s.mAll)
	copy(sp.slackOf, s.slackOf[:s.mAll])
	// Rows are packed at the live column width n, not the arena stride:
	// the copy scales with the tableau actually in use.
	sp.rowsBuf = growF(sp.rowsBuf, s.m*s.n)
	for i := 0; i < s.m; i++ {
		copy(sp.rowsBuf[i*s.n:(i+1)*s.n], s.rows[i][:s.n])
	}
	sp.rhs = growF(sp.rhs, s.m)
	copy(sp.rhs, s.rhs[:s.m])
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
// caller's view of applied fixes must be reset to the snapshot's.
//
//sqpr:hotpath
func (s *DenseSolver) RestoreBasis() bool {
	sp := &s.snap
	if !sp.valid {
		return false
	}
	oldN := s.n
	s.m = sp.m
	s.n = sp.n
	s.nArtStart = sp.nArtStart
	s.nInactive = sp.nInactive
	s.scanValid = false // the restored point differs from the scanned one
	copy(s.activeRows[:s.mAll], sp.activeRows)
	copy(s.slackOf[:s.mAll], sp.slackOf)
	for i := 0; i < sp.m; i++ {
		row := s.rows[i]
		copy(row[:sp.n], sp.rowsBuf[i*sp.n:(i+1)*sp.n])
		// Pivots after the save may have dirtied columns past the
		// snapshot width; scrub them so a later activation can claim a
		// clean column at the live edge.
		for k := sp.n; k < oldN; k++ {
			row[k] = 0
		}
	}
	copy(s.rhs[:s.m], sp.rhs)
	copy(s.basis[:s.m], sp.basis)
	copy(s.rowOf[:s.n], sp.rowOf)
	copy(s.inBasis[:s.n], sp.inBasis)
	copy(s.upper[:s.n], sp.upper)
	copy(s.flipped[:s.n], sp.flipped)
	copy(s.banned[:s.n], sp.banned)
	copy(s.fixVal[:s.nStruct], sp.fixVal)
	copy(s.d[:s.n], sp.d)
	s.warm = true
	if invariant.Enabled {
		s.checkBasis("RestoreBasis")
	}
	return true
}

// checkBasis verifies the basis/rowOf/inBasis cross-indexing that every
// pivot must preserve: basis[i] names a live column that points back at row
// i, and every column marked basic is named by exactly its row. Checked
// builds call it after basis restores and successful ReSolves; release
// builds compile it out.
func (s *DenseSolver) checkBasis(where string) {
	if !s.warm {
		// No warm-startable tableau: the nStruct==0 shortcut in coldPass
		// answers from the constant rows alone and never builds one, so
		// basis/rowOf/inBasis hold nothing checkable.
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
}

// RowDual returns the dual multiplier of original constraint row i at the
// current (optimal) basis: the sensitivity ∂objective/∂RHS_i in the
// problem's minimisation space. Inactive lazy rows and equality rows (whose
// slack column is not kept) report 0.
//
//sqpr:hotpath
func (s *DenseSolver) RowDual(i int) float64 {
	if i < 0 || i >= s.mAll || !s.activeRows[i] {
		return 0
	}
	slack := s.slackOf[i]
	if slack < 0 {
		return 0
	}
	// d_slack = −y for the built row a·x + sc·s = b; the original-row
	// multiplier is y_orig = −d_slack/sc with sc = +1 (LE) or −1 (GE).
	if s.prob.Cons[i].Sense == GE {
		return s.d[slack]
	}
	return -s.d[slack]
}

// Fix pins structural variable j at 0 (atUpper false) or at its upper bound
// (atUpper true) without recompiling the problem. When the tableau holds a
// warm basis the bound change is applied in place: the column is re-oriented
// if needed and its effective bound collapses to zero, leaving any primal
// infeasibility for the next ReSolve's dual simplex to repair. Fixing at
// the upper bound requires a finite upper bound.
//
//sqpr:hotpath
func (s *DenseSolver) Fix(j int, atUpper bool) {
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
				s.flipBasicRow(r)
			} else {
				s.flipColumn(j)
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
func (s *DenseSolver) Unfix(j int) {
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
// From a warm basis it runs bounded-variable dual simplex plus a primal
// clean-up; otherwise (first call, or after a fallback) it performs a cold
// two-phase primal solve over the active rows. Violated inactive rows are
// then activated and repaired until the point satisfies the full problem.
// The returned Solution's X aliases a solver-owned buffer valid until the
// next call. The steady-state warm path performs no heap allocation.
//
//sqpr:hotpath
func (s *DenseSolver) ReSolve(opts Options) Solution {
	s.installOpts(opts)
	coldDone := false
	for {
		var st Status
		if !s.warm {
			st = s.coldPass()
			coldDone = true
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
				continue // repair the newly active rows warm
			}
			// The zero-activation scan above certified the inactive rows;
			// only bounds and active rows remain to check.
			feas := s.checkFeasibleActive(x)
			if invariant.Enabled {
				s.checkBasis("ReSolve")
			}
			if !feas && !coldDone {
				// Numerical drift accumulated across pivots: refactorise
				// from scratch. The cold path re-derives everything from
				// the problem data, so drift cannot compound across nodes.
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
			// feasible region, so inactive rows cannot rescue it.) The
			// tableau stays consistent, so later ReSolves stay warm.
			return Solution{Status: Infeasible, Iters: s.iters}
		case unbounded:
			if s.nInactive > 0 {
				// The descent ray may be cut off by rows not yet active;
				// bring everything in and restart cold.
				s.activateAll()
				s.warm = false
				coldDone = false
				continue
			}
			return Solution{Status: unbounded, X: s.extract(), Iters: s.iters}
		default: // IterLimit
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

// expired reports whether the deadline or context of the current call has
// lapsed.
//
//sqpr:hotpath
func (s *DenseSolver) expired() bool {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	return s.ctx != nil && s.ctx.Err() != nil
}

//sqpr:hotpath
func (s *DenseSolver) installOpts(opts Options) {
	s.deadline = opts.Deadline
	s.ctx = opts.Ctx
	s.maxIters = opts.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 200 * (s.mAll + s.nStruct + s.nSlack + 10)
	}
	s.iters = 0
	s.bland = false
	s.stall = 0
}

// coldPass rebuilds the tableau from the problem plus current fixes over
// the active row set and runs the two-phase primal simplex. On success the
// tableau is left at an optimal basis and the solver is marked warm.
func (s *DenseSolver) coldPass() Status {
	if s.nStruct == 0 {
		if constRowsFeasible(s.prob) {
			return Optimal
		}
		return Infeasible
	}
	s.rebuild()

	if s.nArtStart < s.n {
		st := s.iterate()
		if st == IterLimit {
			return IterLimit
		}
		if s.phase1Value() > zeroTol*float64(1+s.m) {
			return Infeasible
		}
		s.driveOutArtificials()
		for j := s.nArtStart; j < s.n; j++ {
			s.banned[j] = true
		}
	}

	s.installCosts()
	st := s.iterate()
	if st == Optimal || st == IterLimit {
		// Pin artificials at zero so the dual simplex treats any later
		// drift on redundant rows as a violation to repair.
		for j := s.nArtStart; j < s.n; j++ {
			s.upper[j] = 0
		}
	}
	s.warm = st == Optimal
	return st
}

// activateViolated evaluates the inactive rows at x and warm-activates the
// violated ones; returns how many were activated. After a full first scan
// it runs incrementally: only rows containing a variable that moved since
// that variable's rows were last evaluated are re-evaluated — on SQPR's
// models a node re-solve moves a handful of variables while thousands of
// availability/acyclicity rows stay put.
//
//sqpr:hotpath
func (s *DenseSolver) activateViolated(x []float64) int {
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
		d := x[j] - s.scanX[j]
		if d < scanEps && d > -scanEps {
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
func (s *DenseSolver) rowViolated(i int, x []float64) bool {
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
func (s *DenseSolver) checkFeasibleActive(x []float64) bool {
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

// activateAll brings every inactive row in (used before an unbounded
// restart; the subsequent pass is cold, so a plain marking suffices).
func (s *DenseSolver) activateAll() {
	for i := range s.activeRows[:s.mAll] {
		s.activeRows[i] = true
	}
	s.nInactive = 0
}

// activateRow appends inactive inequality row i to the warm tableau: the
// row is given a fresh slack column at the live edge of the tableau,
// expressed in the current orientation, basic variables are eliminated, and
// the slack becomes basic — primal-infeasible exactly when the row is
// violated, which the next dual-simplex pass repairs. Reduced costs are
// untouched: a zero-cost basic slack changes no other column's reduced
// cost, so dual feasibility survives activation.
//
//sqpr:hotpath
func (s *DenseSolver) activateRow(i int) {
	c := &s.prob.Cons[i]
	// Claim column s.n for the slack and scrub any stale state there (the
	// slot may have been used before a basis restore rewound the tableau).
	s.slackOf[i] = s.n
	for r := 0; r < s.m; r++ {
		s.rows[r][s.n] = 0
	}
	s.upper[s.n] = math.Inf(1)
	s.baseU[s.n] = math.Inf(1)
	s.flipped[s.n] = false
	s.inBasis[s.n] = false
	s.rowOf[s.n] = -1
	s.d[s.n] = 0
	s.n++

	slot := s.m
	row := s.rows[slot]
	for k := 0; k < s.n; k++ {
		row[k] = 0
	}
	sign := 1.0
	if c.Sense == GE {
		// a·x − s = b  ⇔  −a·x + s = −b keeps the slack coefficient +1.
		sign = -1
	}
	rhs := sign * c.RHS
	for _, tm := range c.Terms {
		a := sign * tm.Coef
		j := tm.Var
		if s.flipped[j] {
			// Column j is in complement orientation x̄ = u − x.
			rhs -= a * s.baseU[j]
			row[j] -= a
		} else {
			row[j] += a
		}
	}
	// Eliminate basic variables so the row is expressed over the current
	// nonbasic space.
	for j := 0; j < s.n; j++ {
		f := row[j]
		if f == 0 || !s.inBasis[j] {
			continue
		}
		r2 := s.rows[s.rowOf[j]]
		for k := 0; k < s.n; k++ {
			row[k] -= f * r2[k]
		}
		row[j] = 0
		rhs -= f * s.rhs[s.rowOf[j]]
	}
	slack := s.slackOf[i]
	row[slack] = 1
	s.rhs[slot] = rhs
	s.basis[slot] = slack
	s.banned[slack] = false
	s.inBasis[slack] = true
	s.rowOf[slack] = slot
	s.d[slack] = 0
	s.activeRows[i] = true
	s.m = slot + 1
	s.nInactive--
}

// dualIterate runs bounded-variable dual simplex pivots from a dual-feasible
// basis until primal feasibility (optimality), proven infeasibility, or a
// budget is exhausted. Two violation forms are handled: a basic variable
// below zero enters directly; one above a positive upper bound is first
// re-oriented to its complement (flipBasicRow) so it, too, exits at zero. A
// basic variable above a zero-width bound (fixed variables, artificials)
// pivots out directly — both of its bounds coincide at zero, so no
// re-orientation is needed or wanted.
//
//sqpr:hotpath
func (s *DenseSolver) dualIterate() Status {
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
			if v := -s.rhs[i]; v > viol {
				viol, r, above = v, i, false
			}
			if ub := s.upper[s.basis[i]]; !math.IsInf(ub, 1) {
				if v := s.rhs[i] - ub; v > viol {
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
			s.flipBasicRow(r)
			above = false
		}

		// Entering column: dual ratio test. For the below-zero form the
		// candidates have a negative row coefficient; for the zero-width
		// above form, a positive one.
		row := s.rows[r]
		enter := -1
		best := math.Inf(1)
		for j := 0; j < s.n; j++ {
			if s.inBasis[j] || s.banned[j] {
				continue
			}
			a := row[j]
			if !above {
				a = -a
			}
			if a <= pivotTol {
				continue
			}
			ratio := s.d[j] / a
			if ratio < best-ratioTol ||
				(ratio < best+ratioTol && enter >= 0 && math.Abs(row[j]) > math.Abs(row[enter])) {
				best = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible
		}
		s.pivot(r, enter)
		s.iters++
	}
}

// extract reconstructs structural variable values in the original
// orientation, writing into the solver's reusable buffer.
//
//sqpr:hotpath
func (s *DenseSolver) extract() []float64 {
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
		v := s.rhs[i]
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

// rebuild constructs the initial tableau over the active rows: slack
// columns give LE rows an identity start where possible, artificials cover
// the rest, fixed variables are folded in as zero-width columns (at-upper
// fixes in complement orientation), and the phase-1 reduced costs are
// installed. Slacks of inactive rows are banned from entering.
//
//sqpr:hotpath
func (s *DenseSolver) rebuild() {
	p := s.prob
	n := s.nStruct
	s.scanValid = false // cold rebuilds move the point arbitrarily
	for j := 0; j < s.stride; j++ {
		s.upper[j] = math.Inf(1)
		s.baseU[j] = math.Inf(1)
		s.flipped[j] = false
		s.banned[j] = false
		s.inBasis[j] = false
		s.rowOf[j] = -1
		s.d[j] = 0
	}
	for j := 0; j < n; j++ {
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
	// Assign slack columns densely over the active inequality rows; rows
	// activated warm later take fresh columns at the then-current s.n.
	nSlackActive := 0
	for i := 0; i < s.mAll; i++ {
		if !s.activeRows[i] || s.prob.Cons[i].Sense == EQ {
			s.slackOf[i] = -1
			continue
		}
		s.slackOf[i] = n + nSlackActive
		nSlackActive++
	}

	slot := 0
	nArt := 0
	artBase := n + nSlackActive
	// Zero the rows only out to the worst-case live width of this rebuild
	// (slacks assigned above plus at most one artificial per row); columns
	// claimed later by warm activations are scrubbed at claim time.
	zlim := artBase + s.mAll
	if zlim > s.stride {
		zlim = s.stride
	}
	for i := range p.Cons {
		if !s.activeRows[i] {
			continue
		}
		c := &p.Cons[i]
		row := s.rows[slot]
		for k := 0; k < zlim; k++ {
			row[k] = 0
		}
		rhs := c.RHS
		for _, tm := range c.Terms {
			if s.fixVal[tm.Var] == fixUpper {
				// x = u − x̄ with x̄ pinned at 0: substitute in complement
				// orientation so the fixed value lands on the RHS.
				rhs -= tm.Coef * s.baseU[tm.Var]
				row[tm.Var] -= tm.Coef
			} else {
				row[tm.Var] += tm.Coef
			}
		}
		slackCoef := 0.0
		switch c.Sense {
		case LE:
			slackCoef = 1.0
		case GE:
			slackCoef = -1.0
		}
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			slackCoef = -slackCoef
			rhs = -rhs
		}
		if s.slackOf[i] >= 0 {
			row[s.slackOf[i]] = slackCoef
		}
		s.rhs[slot] = rhs
		if s.slackOf[i] >= 0 && slackCoef > 0 {
			s.basis[slot] = s.slackOf[i]
		} else {
			art := artBase + nArt
			nArt++
			row[art] = 1.0
			s.basis[slot] = art
		}
		slot++
	}
	s.m = slot
	s.n = artBase + nArt
	s.nArtStart = artBase
	for i, b := range s.basis[:s.m] {
		s.inBasis[b] = true
		s.rowOf[b] = i
	}

	// Phase-1 reduced costs: minimise the sum of artificials. With the
	// artificials basic, d_j = −Σ_{artificial rows i} T_ij.
	for i, b := range s.basis[:s.m] {
		if b < s.nArtStart {
			continue
		}
		row := s.rows[i]
		for j := 0; j < s.n; j++ {
			s.d[j] -= row[j]
		}
	}
	for j := s.nArtStart; j < s.n; j++ {
		s.d[j]++
	}
}

// phase1Value returns the current sum of artificial variable values.
func (s *DenseSolver) phase1Value() float64 {
	var sum float64
	for i, b := range s.basis[:s.m] {
		if b >= s.nArtStart {
			sum += s.rhs[i]
		}
	}
	return sum
}

// driveOutArtificials pivots zero-valued basic artificials onto structural
// columns where possible, leaving redundant rows with a basic artificial
// pinned at zero. Banned (fixed) columns are never pivoted in: a fixed
// variable entering the basis could later drift off its pinned value.
func (s *DenseSolver) driveOutArtificials() {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.nArtStart {
			continue
		}
		row := s.rows[i]
		pivot := -1
		for j := 0; j < s.nArtStart; j++ {
			if !s.inBasis[j] && !s.banned[j] && math.Abs(row[j]) > 1e-7 {
				pivot = j
				break
			}
		}
		if pivot >= 0 {
			s.pivot(i, pivot)
		}
	}
}

// installCosts recomputes the reduced-cost row for the problem objective in
// the current basis and orientation.
func (s *DenseSolver) installCosts() {
	c := s.cbuf[:s.n]
	for j := range c {
		c[j] = 0
	}
	for j := 0; j < s.nStruct; j++ {
		cj := s.prob.cost(j)
		if s.flipped[j] {
			cj = -cj
		}
		c[j] = cj
	}
	copy(s.d[:s.n], c)
	for i, b := range s.basis[:s.m] {
		cb := c[b]
		if cb == 0 {
			continue
		}
		row := s.rows[i]
		for j := 0; j < s.n; j++ {
			s.d[j] -= cb * row[j]
		}
	}
	for _, b := range s.basis[:s.m] {
		s.d[b] = 0
	}
}

// iterate runs primal simplex iterations until optimality, unboundedness or
// a budget is exhausted.
//
//sqpr:hotpath
func (s *DenseSolver) iterate() Status {
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if s.iters%16 == 0 {
			if !s.deadline.IsZero() && time.Now().After(s.deadline) {
				return IterLimit
			}
			if s.ctx != nil && s.ctx.Err() != nil {
				return IterLimit
			}
		}
		j := s.chooseEntering()
		if j < 0 {
			return Optimal
		}
		st := s.step(j)
		if st != 0 {
			return st
		}
		s.iters++
	}
}

// chooseEntering selects a nonbasic column with negative reduced cost, using
// Dantzig's rule normally and Bland's rule once degeneracy stalls.
//
//sqpr:hotpath
func (s *DenseSolver) chooseEntering() int {
	if s.bland {
		for j := 0; j < s.n; j++ {
			if !s.inBasis[j] && !s.banned[j] && s.d[j] < -costTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < s.n; j++ {
		if s.inBasis[j] || s.banned[j] {
			continue
		}
		if s.d[j] < bestVal {
			bestVal = s.d[j]
			best = j
		}
	}
	return best
}

// step performs the ratio test and either flips the entering variable to
// its opposite bound or pivots it into the basis. Returns 0 on success,
// unbounded if the entering direction is unbounded.
//
//sqpr:hotpath
func (s *DenseSolver) step(j int) Status {
	tmax := s.upper[j]
	leave := -1
	leaveAtUpper := false
	for i := 0; i < s.m; i++ {
		a := s.rows[i][j]
		if a > pivotTol {
			lim := s.rhs[i] / a
			if lim < tmax-ratioTol || (lim < tmax+ratioTol && leave >= 0 && math.Abs(a) > math.Abs(s.rows[leave][j])) {
				tmax = lim
				leave = i
				leaveAtUpper = false
			}
		} else if a < -pivotTol {
			ub := s.upper[s.basis[i]]
			if math.IsInf(ub, 1) {
				continue
			}
			lim := (ub - s.rhs[i]) / -a
			if lim < tmax-ratioTol || (lim < tmax+ratioTol && leave >= 0 && math.Abs(a) > math.Abs(s.rows[leave][j])) {
				tmax = lim
				leave = i
				leaveAtUpper = true
			}
		}
	}
	if leave < 0 {
		if math.IsInf(tmax, 1) {
			return unbounded
		}
		// Bound flip: the entering variable moves straight to its upper
		// bound; re-orient it so it is nonbasic at zero again.
		s.flipColumn(j)
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
		s.flipBasicRow(leave)
	}
	s.pivot(leave, j)
	return 0
}

//sqpr:hotpath
func (s *DenseSolver) noteProgress(step float64) {
	if step > ratioTol {
		s.stall = 0
	}
}

// flipColumn substitutes x_j = u_j − x̄_j for a nonbasic variable with a
// finite upper bound, moving the current point accordingly.
//
//sqpr:hotpath
func (s *DenseSolver) flipColumn(j int) {
	u := s.upper[j]
	for i := 0; i < s.m; i++ {
		a := s.rows[i][j]
		if a != 0 {
			s.rhs[i] -= a * u
			s.rows[i][j] = -a
		}
	}
	s.d[j] = -s.d[j]
	s.flipped[j] = !s.flipped[j]
}

// flipBasicRow re-orients the basic variable of row r (x → u − x), negating
// the row so the variable's identity coefficient stays +1.
//
//sqpr:hotpath
func (s *DenseSolver) flipBasicRow(r int) {
	b := s.basis[r]
	u := s.upper[b]
	row := s.rows[r]
	for j := 0; j < s.n; j++ {
		row[j] = -row[j]
	}
	row[b] = 1
	s.rhs[r] = u - s.rhs[r]
	s.flipped[b] = !s.flipped[b]
}

// pivot makes column j basic in row r by Gaussian elimination of the
// tableau, right-hand side and reduced-cost row.
//
//sqpr:hotpath
func (s *DenseSolver) pivot(r, j int) {
	rowR := s.rows[r]
	piv := rowR[j]
	if piv != 1 {
		inv := 1 / piv
		for k := 0; k < s.n; k++ {
			rowR[k] *= inv
		}
		rowR[j] = 1 // guard against roundoff
		s.rhs[r] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.rows[i][j]
		if f == 0 {
			continue
		}
		rowI := s.rows[i]
		for k := 0; k < s.n; k++ {
			rowI[k] -= f * rowR[k]
		}
		rowI[j] = 0
		s.rhs[i] -= f * s.rhs[r]
		if s.rhs[i] < 0 && s.rhs[i] > -1e-11 {
			s.rhs[i] = 0
		}
	}
	if f := s.d[j]; f != 0 {
		for k := 0; k < s.n; k++ {
			s.d[k] -= f * rowR[k]
		}
		s.d[j] = 0
	}
	old := s.basis[r]
	s.inBasis[old] = false
	s.rowOf[old] = -1
	s.basis[r] = j
	s.inBasis[j] = true
	s.rowOf[j] = r
}
