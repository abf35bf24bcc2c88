// Package milp provides a small mixed-integer linear programming solver on
// top of the simplex in internal/lp. It offers the subset of the CPLEX
// feature surface that the SQPR planner depends on: binary and continuous
// variables, linear constraints, maximisation or minimisation, a solve
// deadline after which the best incumbent found so far is returned, a node
// limit, branch priorities, and externally supplied warm-start incumbents.
//
// The search is a best-first branch and bound with depth-first plunging
// over one root LP. Unless Options.DisableTreeReduction is set, a presolve
// pass tightens and fixes over the row image before compilation
// (presolve.go) and branching runs on pseudo-costs with builder-supplied
// priorities as tie-breaks. The search has no primal heuristic of its
// own: a caller that wants an incumbent from the start supplies one
// (Options.Incumbent), and without one the search branches until a leaf
// is integral.
package milp

import (
	"context"
	"fmt"
	"math"
	"time"

	"sqpr/internal/lp"
)

// VarType distinguishes variable domains.
type VarType int8

// Variable domains.
const (
	Continuous VarType = iota
	Binary
)

// Var is an opaque variable handle returned by Model.AddVar.
type Var int

// Term couples a variable with a coefficient.
type Term struct {
	Var  Var
	Coef float64
}

// Sense re-exports the constraint senses of internal/lp for callers.
type Sense = lp.Sense

// Constraint senses.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

type varInfo struct {
	lo, hi float64
	typ    VarType
	prio   int8
	at     int32 // position of the variable's term in the open row, if it has one
	name   string
	obj    float64
}

// Model is a mutable MILP under construction. It is not safe for concurrent
// use (including concurrent Solve calls on the same Model; independent
// Models may solve concurrently).
//
// A Model owns everything its solves use: the compiled LP image and the
// branch-and-bound search, whose LP solver and buffers are allocated by
// the first Solve and reused, grown only when a model outgrows them, by
// every later one. Nothing is shared between Models.
//
// The rows are stored once, in compressed-sparse-row form: row i is
// rowSense[i] and rowRHS[i] over the terms rowCoef[k]·x[rowVar[k]] for k in
// [rowStart[i], rowStart[i+1]). The terms from rowStart's last entry to
// the end of rowVar are the open row, the one AddTerm is appending to.
type Model struct {
	vars     []varInfo
	maximize bool

	rowStart []int32
	rowVar   []int32
	rowCoef  []float64
	rowSense []Sense
	rowRHS   []float64
	rowName  []string

	// stray is the first variable outside the model that the open row
	// referenced, when hasStray; err names the first row that did.
	stray    Var
	hasStray bool
	err      error

	// compiled is the reusable compilation image; see compile.
	compiled compiled

	// search is the branch-and-bound state Solve resets and runs; its
	// LP solver and buffers carry from one Solve to the next.
	search search
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{rowStart: []int32{0}} }

// Reset empties the model for rebuilding while keeping all backing storage
// (the variables, the row matrix, the compiled image, the search's LP
// solver and buffers), so a long-lived planner can re-emit its model every
// submission without churning the heap.
func (m *Model) Reset() {
	m.vars = m.vars[:0]
	m.maximize = false
	m.rowStart = append(m.rowStart[:0], 0)
	m.rowVar, m.rowCoef = m.rowVar[:0], m.rowCoef[:0]
	m.rowSense, m.rowRHS, m.rowName = m.rowSense[:0], m.rowRHS[:0], m.rowName[:0]
	m.hasStray, m.err = false, nil
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// AddVar adds a variable with the given bounds and domain. For Binary
// variables the bounds are intersected with [0,1].
func (m *Model) AddVar(lo, hi float64, typ VarType, name string) Var {
	if typ == Binary {
		lo = math.Max(lo, 0)
		hi = math.Min(hi, 1)
	}
	if lo < 0 {
		// The LP substrate requires non-negative variables; SQPR's model
		// never needs negative values, so clamp defensively.
		lo = 0
	}
	m.vars = append(m.vars, varInfo{lo: lo, hi: hi, typ: typ, name: name})
	return Var(len(m.vars) - 1)
}

// AddBinary adds a {0,1} variable.
func (m *Model) AddBinary(name string) Var { return m.AddVar(0, 1, Binary, name) }

// AddContinuous adds a continuous variable on [lo, hi].
func (m *Model) AddContinuous(lo, hi float64, name string) Var {
	return m.AddVar(lo, hi, Continuous, name)
}

// Fix pins a variable to a single value by collapsing its bounds. Presolve
// then substitutes it out of the LP entirely, which is how SQPR's problem
// reduction keeps planning cost independent of system size.
func (m *Model) Fix(v Var, val float64) {
	m.vars[v].lo = val
	m.vars[v].hi = val
}

// SetBranchPriority assigns a branching priority to v. Priorities break
// ties between fractional candidates whose pseudo-cost scores are
// indistinguishable — common early in a search, before the pseudo-costs
// have observations. SQPR's builder ranks admission (d) and availability
// (y) above operator placement (z) and flow routing (x): when the scores
// cannot tell candidates apart, the high-value decisions are resolved
// first. A variable whose observed objective degradations mark it as the
// real bottleneck still wins regardless of class. The default priority
// is 0.
func (m *Model) SetBranchPriority(v Var, prio int8) { m.vars[v].prio = prio }

// SetObjective declares the optimisation direction and resets all objective
// coefficients to the given terms.
func (m *Model) SetObjective(maximize bool, terms ...Term) {
	m.maximize = maximize
	for i := range m.vars {
		m.vars[i].obj = 0
	}
	for _, t := range terms {
		m.vars[t.Var].obj += t.Coef
	}
}

// AddCons appends the linear constraint Σ terms (sense) rhs: AddTerm for
// each term, then EndRow.
func (m *Model) AddCons(name string, sense Sense, rhs float64, terms ...Term) {
	for _, t := range terms {
		m.AddTerm(t.Var, t.Coef)
	}
	m.EndRow(name, sense, rhs)
}

// AddTerm appends coef·v to the open row, the one the next EndRow closes.
// A variable the row already holds has coef added to its first
// appearance. A variable the model lacks fails the next Solve with an
// error naming the row.
func (m *Model) AddTerm(v Var, coef float64) {
	if v < 0 || int(v) >= len(m.vars) {
		if !m.hasStray {
			m.stray, m.hasStray = v, true
		}
		return
	}
	vi := &m.vars[v]
	if k := vi.at; k >= m.rowStart[len(m.rowStart)-1] && int(k) < len(m.rowVar) && m.rowVar[k] == int32(v) {
		m.rowCoef[k] += coef
		return
	}
	vi.at = int32(len(m.rowVar))
	m.rowVar = append(m.rowVar, int32(v))
	m.rowCoef = append(m.rowCoef, coef)
}

// EndRow closes the open row as the constraint Σ terms (sense) rhs. Terms
// whose coefficients summed to zero are dropped; the row stays even when
// none is left.
func (m *Model) EndRow(name string, sense Sense, rhs float64) {
	k := int(m.rowStart[len(m.rowStart)-1])
	for p := k; p < len(m.rowVar); p++ {
		if cf := m.rowCoef[p]; cf != 0 {
			m.rowVar[k], m.rowCoef[k] = m.rowVar[p], cf
			k++
		}
	}
	m.rowVar, m.rowCoef = m.rowVar[:k], m.rowCoef[:k]
	m.rowStart = append(m.rowStart, int32(k))
	m.rowSense = append(m.rowSense, sense)
	m.rowRHS = append(m.rowRHS, rhs)
	m.rowName = append(m.rowName, name)
	if m.hasStray {
		if m.err == nil {
			m.err = fmt.Errorf("milp: row %d (%q) references variable %d, outside the model's %d", len(m.rowSense)-1, name, m.stray, len(m.vars))
		}
		m.hasStray = false
	}
}

// Status reports the outcome of a MILP solve.
type Status int8

// MILP solve outcomes.
const (
	// OptimalMIP means the incumbent was proven optimal within tolerance.
	OptimalMIP Status = iota
	// FeasibleMIP means a feasible incumbent exists but optimality was not
	// proven before a limit was reached (matches the paper's use of a
	// solver timeout returning the best solution found).
	FeasibleMIP
	// InfeasibleMIP means the model has no feasible assignment.
	InfeasibleMIP
	// NoSolution means the search hit its limits before finding any
	// feasible integer point.
	NoSolution
)

// String returns a readable name for the status.
func (s Status) String() string {
	switch s {
	case OptimalMIP:
		return "optimal"
	case FeasibleMIP:
		return "feasible"
	case InfeasibleMIP:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Result is the outcome of Model.Solve.
type Result struct {
	Status    Status
	X         []float64 // incumbent values, one per model variable
	Objective float64   // objective of the incumbent (model direction)
	Bound     float64   // best proven bound on the optimum
	Nodes     int       // branch-and-bound nodes explored
	LPIters   int       // total simplex iterations
	// Factor is the sparse engine's factorization telemetry for the
	// search: refactorization, drift-rebuild and eta-append counts, and the
	// high-water marks of eta-file length and LU fill-in ratio.
	Factor lp.FactorStats
	// PresolveFixed counts variables eliminated before the search started.
	PresolveFixed int
	// BudgetHit is set when the deadline or the node budget cut the search
	// short — the only endings telemetry counts as timeouts. Gap-tolerance
	// stops also return FeasibleMIP but leave it false.
	BudgetHit bool
	// Cancelled is set when Options.Ctx was cancelled mid-search; callers
	// should discard any incumbent and keep their previous state.
	Cancelled bool
	// Err is set when the model is outside what the solver accepts: a row
	// term on a variable the model lacks, a variable without a finite upper
	// bound (every LP column must be boxed), or a row the LP rejects.
	// Callers should treat the solve as failed.
	Err error
}

// Options tunes a MILP solve.
type Options struct {
	// Ctx, when non-nil, is polled at every branch-and-bound node: a
	// cancelled context aborts the search immediately and the Result is
	// marked Cancelled. A ctx deadline should additionally be folded into
	// Deadline by the caller so it also bounds individual node LPs.
	Ctx context.Context
	// Deadline stops the search and returns the incumbent; zero = none.
	Deadline time.Time
	// MaxNodes caps explored nodes; 0 selects a generous default.
	MaxNodes int
	// Incumbent optionally warm-starts the search with a known feasible
	// point (length NumVars). Infeasible warm starts are ignored.
	Incumbent []float64
	// GapTol terminates when |incumbent − bound| <= GapTol·(1+|incumbent|).
	GapTol float64
	// AbsGapTol terminates (and prunes nodes) when the remaining provable
	// improvement is at most this absolute amount. SQPR exploits this: with
	// λ1 dominating the objective, an absolute gap below λ1 cannot hide an
	// extra admitted query, so the search stops as soon as the admission
	// count is provably optimal.
	AbsGapTol float64
	// DisableTreeReduction turns off presolve and pseudo-cost branching,
	// falling back to plain most-fractional branch and bound over the
	// unreduced model (conformance testing).
	DisableTreeReduction bool
}

// intTol is the integrality tolerance: a binary within this distance of an
// integer counts as integral.
const intTol = 1e-6

// compiled is the presolved LP image of the model: fixed variables are
// substituted out and the remaining ones are shifted so lower bounds are 0.
// Either way a model variable's offset is its overlay lower bound plo,
// which is the value of a fixed one.
// One instance lives on each Model and is rebuilt in place by compile, so
// repeated Solve calls on a long-lived model reuse all of its storage.
type compiled struct {
	m *Model

	active  []int   // model index of each LP variable
	lpIndex []int32 // LP index of each model variable, -1 if fixed

	lp     lp.CSR  // the live rows with fixed variables folded out, over the active ones
	objDir float64 // +1 minimise, -1 the model maximises (we negate)
	objOff float64 // constant objective contribution of fixed variables

	// shiftOff is the objective contribution of the lower-bound shifts of
	// the active variables; together with objOff it converts LP objective
	// values back to model space: modelObj = objDir·lpObj + objOff + shiftOff.
	shiftOff float64

	// Presolve working image: a bounds overlay, mutable copies of the
	// model's coefficients and right-hand sides (possibly tightened), and
	// the rows found redundant. The variables and senses are the model's.
	// See presolve.go.
	plo, phi []float64
	free     []bool // a binary still exactly {0,1} under the overlay, by model variable
	pcoef    []float64
	prhs     []float64
	pskip    []bool
	appear   []int32 // live-row appearance count per model variable

	// Presolve worklist: the rows of each model variable (vrows, indexed
	// by vstart), the ring of rows waiting for a visit with their
	// membership flags, and the variables the last row visit fixed.
	vstart, vrows []int32
	queue         []int32
	queued        []bool
	moved         []int32

	prio []int8 // branch priority of each LP-active variable

	presolveFixed     int // binaries/columns fixed by presolve
	presolveTightened int // coefficients tightened
	presolveDropped   int // redundant rows removed
}

// grow returns s resized to length n, reusing its backing array when it
// is large enough; a fresh array is zeroed, a reused one keeps its values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lpSpace converts a model-direction objective value into the minimisation
// space of the compiled LP.
func (c *compiled) lpSpace(modelObj float64) float64 {
	return c.objDir * (modelObj - c.objOff - c.shiftOff)
}

// modelSpace converts an LP objective value back to model direction.
func (c *compiled) modelSpace(lpObj float64) float64 {
	return c.objDir*lpObj + c.objOff + c.shiftOff
}

var errInfeasible = fmt.Errorf("milp: trivially infeasible after presolve")

// compile builds the LP image into the model's reusable compiled image:
// copy the coefficients and right-hand sides into the presolve image under
// a bounds overlay, optionally run the tree-reduction presolve over it (see
// presolve.go), then emit the live rows as one CSR with fixed variables
// substituted out and the remaining ones shifted to zero lower bounds.
// Returns errInfeasible when a row is unsatisfiable over the (possibly
// tightened) bounds, and an error naming the variable when one has no
// finite upper bound. witness, when non-nil, is a point feasible for the
// model that checked builds hold presolve's feasibility reductions to.
func (m *Model) compile(presolveOn bool, witness []float64) (*compiled, error) {
	if m.err != nil {
		return nil, m.err
	}
	nv := len(m.vars)
	c := &m.compiled
	c.m = m
	c.objDir = 1
	if m.maximize {
		c.objDir = -1
	}
	c.objOff = 0
	c.shiftOff = 0
	c.presolveFixed, c.presolveTightened, c.presolveDropped = 0, 0, 0

	// Bounds overlay: presolve tightens these, never the model's bounds.
	c.plo = grow(c.plo, nv)
	c.phi = grow(c.phi, nv)
	c.free = grow(c.free, nv)
	for i := range m.vars {
		v := &m.vars[i]
		if math.IsInf(v.hi, 1) {
			return nil, fmt.Errorf("milp: variable %q has no finite upper bound", v.name)
		}
		if v.hi < v.lo-1e-9 {
			return nil, errInfeasible
		}
		c.plo[i], c.phi[i] = v.lo, v.hi
		c.free[i] = v.typ == Binary && v.lo == 0 && v.hi == 1
	}
	c.pcoef = append(c.pcoef[:0], m.rowCoef...)
	c.prhs = append(c.prhs[:0], m.rowRHS...)
	c.pskip = grow(c.pskip, len(m.rowSense))
	clear(c.pskip)

	if presolveOn {
		if err := c.runPresolve(witness); err != nil {
			return nil, err
		}
	}
	if err := c.activate(); err != nil {
		return nil, err
	}
	if err := c.emit(); err != nil {
		return nil, err
	}
	return c, nil
}

// activate splits the model variables by their overlay bounds into fixed
// ones and the LP's active columns, shifted to zero lower bounds, and sets
// the LP's cost and upper bound of each column.
func (c *compiled) activate() error {
	m := c.m
	c.lpIndex = grow(c.lpIndex, len(m.vars))
	c.active = c.active[:0]
	for i := range m.vars {
		v := &m.vars[i]
		lo, hi := c.plo[i], c.phi[i]
		if hi < lo-1e-9 {
			return errInfeasible
		}
		if hi-lo <= 1e-12 {
			c.lpIndex[i] = -1
			c.objOff += v.obj * lo
			continue
		}
		c.lpIndex[i] = int32(len(c.active))
		c.shiftOff += v.obj * lo
		c.active = append(c.active, i)
	}
	n := len(c.active)
	c.lp.NumVars = n
	c.lp.Cost = grow(c.lp.Cost, n)
	c.lp.Upper = grow(c.lp.Upper, n)
	c.prio = grow(c.prio, n)
	for k, mi := range c.active {
		v := &m.vars[mi]
		c.lp.Cost[k] = c.objDir * v.obj
		c.lp.Upper[k] = c.phi[mi] - c.plo[mi]
		c.prio[k] = v.prio
	}
	return nil
}

// emit writes the live rows of the presolve image into the LP's CSR: every
// term moves its variable's offset into the right-hand side, a fixed
// variable's term goes no further, and a row left without terms is checked
// and not emitted.
func (c *compiled) emit() error {
	m := c.m
	a := &c.lp
	start, rowVar := m.rowStart, m.rowVar
	pcoef, plo, lpIndex := c.pcoef, c.plo, c.lpIndex
	vars := grow(a.Var, len(rowVar))
	coefs := grow(a.Coef, len(rowVar))
	a.Start = append(a.Start[:0], 0)
	a.Sense, a.RHS = a.Sense[:0], a.RHS[:0]
	n := int32(0)
	for ri, sense := range m.rowSense {
		if c.pskip[ri] {
			continue
		}
		rhs := c.prhs[ri]
		first := n
		lo, hi := start[ri], start[ri+1]
		rc := pcoef[lo:hi]
		for k, mi := range rowVar[lo:hi] {
			cf := rc[k]
			// Subtracting a zero offset leaves a nonzero rhs as it is.
			if l := plo[mi]; l != 0 || rhs == 0 {
				rhs -= cf * l
			}
			if j := lpIndex[mi]; j >= 0 {
				vars[n], coefs[n] = j, cf
				n++
			}
		}
		if n == first {
			if !rowHolds(sense, 0, rhs, lp.FeasTol) {
				return errInfeasible
			}
			continue
		}
		a.Start = append(a.Start, n)
		a.Sense = append(a.Sense, sense)
		a.RHS = append(a.RHS, rhs)
	}
	a.Var, a.Coef = vars[:n], coefs[:n]
	return nil
}

// toModelXInto expands an LP point back to full model-variable space, into
// the caller's buffer (grown as needed), so the branch-and-bound's candidate
// paths stay allocation-free.
func (c *compiled) toModelXInto(x, buf []float64) []float64 {
	buf = grow(buf, len(c.m.vars))
	copy(buf, c.plo)
	for k, mi := range c.active {
		buf[mi] = x[k] + c.plo[mi]
	}
	return buf
}

// modelObjective computes the model-direction objective of a full point.
func (c *compiled) modelObjective(x []float64) float64 {
	var sum float64
	for i, v := range c.m.vars {
		sum += v.obj * x[i]
	}
	return sum
}
