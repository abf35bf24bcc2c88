// Package milp provides a small mixed-integer linear programming solver on
// top of the simplex in internal/lp. It offers the subset of the CPLEX
// feature surface that the SQPR planner depends on: binary and continuous
// variables, linear constraints, maximisation or minimisation, a solve
// deadline after which the best incumbent found so far is returned, node
// and stagnation limits, branch priorities, and externally supplied
// warm-start incumbents.
//
// The search is a best-first branch and bound with depth-first plunging
// over one root LP. Unless Options.DisableTreeReduction is set, a presolve
// pass tightens and fixes over the row image before compilation
// (presolve.go) and branching runs on pseudo-costs with builder-supplied
// priorities as tie-breaks. A rounding "dive" heuristic at the root
// produces an early incumbent when the caller supplied none.
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
	name   string
	obj    float64
}

type rowInfo struct {
	terms []Term
	sense Sense
	rhs   float64
	name  string
}

// Model is a mutable MILP under construction. It is not safe for concurrent
// use (including concurrent Solve calls on the same Model; independent
// Models may solve concurrently).
type Model struct {
	vars     []varInfo
	rows     []rowInfo
	maximize bool

	// scratch is the reusable compilation image; see compile.
	scratch compiled
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Reset empties the model for rebuilding while keeping all backing storage
// (variable and row slices, per-row term slices, the compiled-image arena),
// so a long-lived planner can re-emit its model every submission without
// churning the heap.
func (m *Model) Reset() {
	m.vars = m.vars[:0]
	m.rows = m.rows[:0]
	m.maximize = false
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

// AddCons appends a linear constraint. Terms on the same variable are
// accumulated. After a Reset, rows reuse the term storage of the previous
// build.
func (m *Model) AddCons(name string, sense Sense, rhs float64, terms ...Term) {
	if len(m.rows) < cap(m.rows) {
		m.rows = m.rows[:len(m.rows)+1]
	} else {
		m.rows = append(m.rows, rowInfo{})
	}
	r := &m.rows[len(m.rows)-1]
	r.terms = append(r.terms[:0], terms...)
	r.sense = sense
	r.rhs = rhs
	r.name = name
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
	// Stalled is set when the search ended via Options.StallNodes rather
	// than a deadline or node budget; telemetry keeps it apart from real
	// timeouts.
	Stalled bool
	// BudgetHit is set when the deadline or the node budget cut the search
	// short — the only endings telemetry counts as timeouts. Gap-tolerance
	// and stall stops also return FeasibleMIP but leave it false.
	BudgetHit bool
	// Cancelled is set when Options.Ctx was cancelled mid-search; callers
	// should discard any incumbent and keep their previous state.
	Cancelled bool
	// Err is set when the model is outside what the solver accepts: a
	// variable without a finite upper bound (every LP column must be
	// boxed), or a row the LP rejects. Callers should treat the solve as
	// failed.
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
	// StallNodes, when positive, stops the search (returning the incumbent
	// as FeasibleMIP) once that many consecutive nodes were explored
	// without improving the incumbent — counting only while an incumbent
	// exists, so a search that has not found a feasible point yet keeps
	// going. SQPR uses this: with λ1 dominating the objective, a stalled
	// search is either polishing sub-λ1 placement terms or chasing a
	// fractional-only admission whose refutation tree is enormous; neither
	// changes the admission decision the planner is waiting on. 0 disables
	// stagnation stopping (proofs of optimality need the full tree).
	StallNodes int
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
// One instance lives on each Model and is rebuilt in place by compile, so
// repeated Solve calls on a long-lived model reuse all of its storage.
type compiled struct {
	m *Model

	active  []int     // model index of each LP variable
	lpIndex []int     // LP index of each model variable, -1 if fixed
	shift   []float64 // lower bound subtracted from each model variable
	fixed   []float64 // value of each fixed model variable (by model index)

	base   lp.Problem // constraints with substituted/fixed parts folded in
	objDir float64    // +1 minimise, -1 the model maximises (we negate)
	objOff float64    // constant objective contribution of fixed variables

	// shiftOff is the objective contribution of the lower-bound shifts of
	// the active variables; together with objOff it converts LP objective
	// values back to model space: modelObj = objDir·lpObj + objOff + shiftOff.
	shiftOff float64

	// Row-compilation scratch: coefficient accumulator per model variable
	// with a round-stamped dirty mark, replacing a per-row map allocation.
	coefAcc []float64
	mark    []int
	touched []int
	round   int

	// Presolve working image: a bounds overlay plus a flattened, mutable
	// copy of the model rows (terms accumulated, coefficients possibly
	// tightened, redundant rows marked skipped). See presolve.go.
	plo, phi []float64
	pterms   []Term
	pstart   []int
	psense   []Sense
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

	// Node recycling: fathomed bbNodes are returned here and reused, so the
	// steady-state search allocates no per-node bookkeeping.
	nodeFree []*bbNode

	// Per-Solve search scratch reused across Solve calls.
	openScratch  []*bbNode
	bestXBuf     []float64
	pcUp, pcDn   []float64 // pseudo-cost sums per active variable
	pcUpN, pcDnN []int32   // observation counts per active variable
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
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

func growSenses(s []Sense, n int) []Sense {
	if cap(s) < n {
		return make([]Sense, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt8s(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// compile builds the LP image into the model's reusable scratch arena in
// three steps: flatten the model rows into a mutable, term-accumulated row
// image with a bounds overlay; optionally run the tree-reduction presolve
// over that image (see presolve.go); then emit the LP with fixed variables
// substituted out and the remaining ones shifted to zero lower bounds.
// Returns errInfeasible when a row is unsatisfiable over the (possibly
// tightened) bounds, and an error naming the variable when one has no
// finite upper bound. witness, when non-nil, is a point feasible for the
// model that checked builds hold presolve's feasibility reductions to.
func (m *Model) compile(presolveOn bool, witness []float64) (*compiled, error) {
	nv := len(m.vars)
	c := &m.scratch
	c.m = m
	c.objDir = 1
	if m.maximize {
		c.objDir = -1
	}
	c.objOff = 0
	c.shiftOff = 0
	c.presolveFixed, c.presolveTightened, c.presolveDropped = 0, 0, 0

	// Bounds overlay: presolve tightens these, never the model's bounds.
	c.plo = growFloats(c.plo, nv)
	c.phi = growFloats(c.phi, nv)
	for i := range m.vars {
		v := &m.vars[i]
		if math.IsInf(v.hi, 1) {
			return nil, fmt.Errorf("milp: variable %q has no finite upper bound", v.name)
		}
		if v.hi < v.lo-1e-9 {
			return nil, errInfeasible
		}
		c.plo[i], c.phi[i] = v.lo, v.hi
	}

	// Row image: accumulated terms, flattened; the accumulator is keyed by
	// model variable with a round-stamped dirty mark (no per-row map).
	c.coefAcc = growFloats(c.coefAcc, nv)
	c.mark = growInts(c.mark, nv)
	nr := len(m.rows)
	c.pstart = growInts(c.pstart, nr+1)
	c.psense = growSenses(c.psense, nr)
	c.prhs = growFloats(c.prhs, nr)
	c.pskip = growBools(c.pskip, nr)
	c.pterms = c.pterms[:0]
	for ri := range m.rows {
		r := &m.rows[ri]
		c.pstart[ri] = len(c.pterms)
		c.psense[ri] = r.sense
		c.prhs[ri] = r.rhs
		c.pskip[ri] = false
		c.round++
		c.touched = c.touched[:0]
		for _, t := range r.terms {
			mi := int(t.Var)
			if c.mark[mi] != c.round {
				c.mark[mi] = c.round
				c.coefAcc[mi] = 0
				c.touched = append(c.touched, mi)
			}
			c.coefAcc[mi] += t.Coef
		}
		for _, mi := range c.touched {
			if cf := c.coefAcc[mi]; cf != 0 {
				c.pterms = append(c.pterms, Term{Var: Var(mi), Coef: cf})
			}
		}
	}
	c.pstart[nr] = len(c.pterms)

	if presolveOn {
		if err := c.runPresolve(witness); err != nil {
			return nil, err
		}
	}

	// Active set from the overlay bounds.
	c.lpIndex = growInts(c.lpIndex, nv)
	c.shift = growFloats(c.shift, nv)
	c.fixed = growFloats(c.fixed, nv)
	c.active = c.active[:0]
	for i := range m.vars {
		v := &m.vars[i]
		lo, hi := c.plo[i], c.phi[i]
		c.shift[i] = 0
		c.fixed[i] = 0
		if hi < lo-1e-9 {
			return nil, errInfeasible
		}
		if hi-lo <= 1e-12 {
			c.lpIndex[i] = -1
			c.fixed[i] = lo
			c.objOff += v.obj * lo
			continue
		}
		c.lpIndex[i] = len(c.active)
		c.shift[i] = lo
		c.shiftOff += v.obj * lo
		c.active = append(c.active, i)
	}
	n := len(c.active)
	c.base.NumVars = n
	c.base.Cost = growFloats(c.base.Cost, n)
	c.base.Upper = growFloats(c.base.Upper, n)
	c.prio = growInt8s(c.prio, n)
	for k, mi := range c.active {
		v := &m.vars[mi]
		c.base.Cost[k] = c.objDir * v.obj
		c.base.Upper[k] = c.phi[mi] - c.plo[mi]
		c.prio[k] = v.prio
	}

	// LP rows from the (possibly tightened) row image.
	c.base.Cons = c.base.Cons[:0]
	for ri := 0; ri < nr; ri++ {
		if c.pskip[ri] {
			continue
		}
		rhs := c.prhs[ri]
		// Reuse the previous build's term storage for this constraint slot.
		if len(c.base.Cons) < cap(c.base.Cons) {
			c.base.Cons = c.base.Cons[:len(c.base.Cons)+1]
		} else {
			c.base.Cons = append(c.base.Cons, lp.Constraint{})
		}
		cons := &c.base.Cons[len(c.base.Cons)-1]
		cons.Terms = cons.Terms[:0]
		for _, t := range c.pterms[c.pstart[ri]:c.pstart[ri+1]] {
			mi := int(t.Var)
			if c.lpIndex[mi] < 0 {
				rhs -= t.Coef * c.fixed[mi]
				continue
			}
			rhs -= t.Coef * c.shift[mi]
			cons.Terms = append(cons.Terms, lp.Term{Var: c.lpIndex[mi], Coef: t.Coef})
		}
		if len(cons.Terms) == 0 {
			c.base.Cons = c.base.Cons[:len(c.base.Cons)-1]
			ok := true
			switch c.psense[ri] {
			case LE:
				ok = 0 <= rhs+lp.FeasTol
			case GE:
				ok = 0 >= rhs-lp.FeasTol
			case EQ:
				ok = math.Abs(rhs) <= lp.FeasTol
			}
			if !ok {
				return nil, errInfeasible
			}
			continue
		}
		cons.Sense = c.psense[ri]
		cons.RHS = rhs
	}
	return c, nil
}

// toModelXInto expands an LP point back to full model-variable space, into
// the caller's buffer (grown as needed), so the branch-and-bound's candidate
// paths stay allocation-free.
func (c *compiled) toModelXInto(x, buf []float64) []float64 {
	buf = growFloats(buf, len(c.m.vars))
	copy(buf, c.fixed)
	for k, mi := range c.active {
		buf[mi] = x[k] + c.shift[mi]
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
