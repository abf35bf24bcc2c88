package milp

import (
	"container/heap"
	"context"
	"math"
	"time"

	"sqpr/internal/invariant"
	"sqpr/internal/lp"
)

// bbNode is one branch-and-bound subproblem: a set of pinned binaries
// (indices into compiled.active space) plus bookkeeping for best-first
// ordering and pseudo-cost updates. Fathomed nodes are recycled through
// the search's scratch.
type bbNode struct {
	bounds []boundFix
	depth  int
	est    float64 // parent LP objective (minimisation space), for pruning
	seq    int     // insertion order, deterministic tie-break

	// Branching bookkeeping: the variable whose pin created this node, so
	// the node's own relaxation updates that variable's pseudo-cost.
	branchVar  int // LP-active index, -1 for the root
	branchUp   bool
	parentEst  float64
	branchDist float64 // fractional distance moved by the pin
}

type boundFix struct {
	lpVar int
	lo    bool // true: pin at 1 (upper bound after shift); false: pin at 0
}

// nodeHeap is a best-first priority queue: smallest relaxation estimate
// first (most promising bound in minimisation space), FIFO on ties so the
// search explores nodes in a deterministic order.
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].est != h[j].est {
		return h[i].est < h[j].est
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve optimises the model. The returned Result always carries the best
// incumbent found, mirroring the paper's use of a solver timeout after which
// "the best solution that the method found" is used. The search runs on the
// calling goroutine and is fully deterministic unless a deadline or a
// cancellation cuts it short.
//
// Unless Options.DisableTreeReduction is set, presolve runs before
// compilation and branching uses pseudo-costs. Neither changes which
// integer points are optimal — they only shrink the tree that proves it.
func (m *Model) Solve(opts Options) Result {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 10000
	}

	// Checked builds hold presolve to a warm start that satisfies the
	// model: no feasibility reduction may cut it off.
	var witness []float64
	if invariant.Enabled && len(opts.Incumbent) == len(m.vars) && m.satisfies(opts.Incumbent) {
		witness = opts.Incumbent
	}
	c, err := m.compile(!opts.DisableTreeReduction, witness)
	if err != nil {
		if err != errInfeasible {
			return Result{Status: NoSolution, Bound: math.Inf(-1), Err: err}
		}
		if invariant.Enabled && witness != nil {
			invariant.Failf("milp: compile proved infeasible a model the warm start satisfies")
		}
		return Result{Status: InfeasibleMIP, Bound: math.Inf(-1)}
	}

	s := &m.search
	s.reset(c, opts, maxNodes)

	// Warm start: accept an externally computed feasible point.
	if opts.Incumbent != nil && len(opts.Incumbent) == len(m.vars) {
		s.acceptModelPoint(opts.Incumbent)
	}

	s.run()

	res := Result{
		Nodes: s.nodes, LPIters: s.lpIters, Cancelled: s.cancelled,
		BudgetHit:     s.truncated && !s.cancelled,
		PresolveFixed: c.presolveFixed,
		Err:           s.err,
	}
	if s.loaded {
		res.Factor = s.slv.FactorStats()
	}
	switch {
	case s.bestX == nil && s.provedInfeasible:
		res.Status = InfeasibleMIP
	case s.bestX == nil:
		res.Status = NoSolution
	case s.provedOptimal:
		res.Status = OptimalMIP
	default:
		res.Status = FeasibleMIP
	}
	if s.bestX != nil {
		// bestX lives in the search's scratch; the Result owns its X.
		res.X = append([]float64(nil), s.bestX...)
		res.Objective = c.modelObjective(s.bestX)
	}
	if !math.IsInf(s.rootBound, 0) {
		res.Bound = c.modelSpace(s.rootBound)
	} else if s.bestX != nil {
		res.Bound = res.Objective
	}
	return res
}

// search is the state of one branch-and-bound run over the compiled model.
// One lives on each Model and every Solve resets it; the scratch it embeds
// (the warm LP solver, recycled nodes and the sized buffers) carries across
// Solves, so a long-lived planner's branch-and-bound allocates nothing per
// node and no fresh LP arenas per submission.
type search struct {
	scratch

	c        *compiled
	ctx      context.Context
	reduce   bool // presolve + pseudo-cost branching enabled
	maxNodes int
	deadline time.Time
	gapTol   float64
	absGap   float64

	seq int

	nodes   int
	lpIters int

	bestX   []float64 // model-space incumbent (aliases bestXBuf)
	bestObj float64   // minimisation-space objective of incumbent

	loaded bool  // the solver holds this solve's LP
	err    error // lp.LoadCSR rejected the compiled problem

	// hasSnap marks that the solver holds a saved basis whose fix set is
	// snapApplied; jumping to an unrelated subtree restores it so the node
	// re-solve stays pure dual simplex (bound tightenings only).
	hasSnap bool

	// Global pseudo-cost average, used for candidates without observations.
	pcSum float64
	pcCnt int32

	rootBound        float64
	provedOptimal    bool
	provedInfeasible bool
	truncated        bool // node/deadline budget exhausted mid-search
	proofLost        bool // an LP hit its budget: keep searching, drop proof
	gapHit           bool
	cancelled        bool
}

// scratch is what a search keeps from one Solve to the next: the warm LP
// solver and the buffers sized to the model, reused when large enough.
type scratch struct {
	slv *lp.Solver

	open     nodeHeap
	recycled []*bbNode // fathomed nodes, reused by newNode
	bestXBuf []float64

	// Pseudo-costs per LP-active variable: sums of per-unit objective
	// degradation and observation counts.
	pcUp, pcDn   []float64
	pcUpN, pcDnN []int32

	target      []int8 // desired fix per active var for the current node
	applied     []int8 // fix currently applied to the solver
	snapApplied []int8 // fix set of the saved basis
	xAct        []float64
	xDive       []float64

	fracs      []fracCand // fractional binaries of the current relaxation
	candBuf    []float64  // model-space integral candidate
	diveBuf    []float64  // model-space dive candidate
	diveBounds []boundFix
}

// reset readies the search for a run over c under opts: every per-solve
// field starts afresh, and the scratch is emptied and sized to c. Nodes
// left open by the previous run go back to the recycling list.
func (s *search) reset(c *compiled, opts Options, maxNodes int) {
	for _, n := range s.open {
		s.freeNode(n)
	}
	*s = search{
		scratch:   s.scratch,
		c:         c,
		ctx:       opts.Ctx,
		reduce:    !opts.DisableTreeReduction,
		maxNodes:  maxNodes,
		deadline:  opts.Deadline,
		gapTol:    opts.GapTol,
		absGap:    opts.AbsGapTol,
		bestObj:   math.Inf(1), // minimisation space
		rootBound: math.Inf(-1),
	}
	if s.slv == nil {
		// Lazy rows: SQPR models carry thousands of availability/acyclicity
		// rows of which only a handful bind at any node optimum, so the
		// active tableau stays small.
		s.slv = lp.NewSolver()
		s.slv.SetLazy(true)
	}
	nAct, nv := len(c.active), len(c.m.vars)
	s.open = s.open[:0]
	s.pcUp, s.pcDn = growFloats(s.pcUp, nAct), growFloats(s.pcDn, nAct)
	s.pcUpN, s.pcDnN = growInt32s(s.pcUpN, nAct), growInt32s(s.pcDnN, nAct)
	clear(s.pcUp)
	clear(s.pcDn)
	clear(s.pcUpN)
	clear(s.pcDnN)
	s.target = growInt8s(s.target, nAct)
	s.applied = growInt8s(s.applied, nAct)
	s.snapApplied = growInt8s(s.snapApplied, nAct)
	for k := 0; k < nAct; k++ {
		s.target[k], s.applied[k], s.snapApplied[k] = nodeFree, nodeFree, nodeFree
	}
	s.xAct = growFloats(s.xAct, nAct)
	s.xDive = growFloats(s.xDive, nAct)
	s.candBuf = growFloats(s.candBuf, nv)
	s.diveBuf = growFloats(s.diveBuf, nv)
}

// newNode takes a recycled node, or makes one.
func (s *search) newNode() *bbNode {
	if n := len(s.recycled); n > 0 {
		nd := s.recycled[n-1]
		s.recycled[n-1] = nil
		s.recycled = s.recycled[:n-1]
		nd.bounds = nd.bounds[:0]
		nd.depth, nd.est, nd.seq = 0, 0, 0
		nd.branchVar, nd.branchUp, nd.parentEst, nd.branchDist = -1, false, 0, 0
		return nd
	}
	return &bbNode{branchVar: -1}
}

// freeNode recycles a fathomed node.
func (s *search) freeNode(n *bbNode) {
	s.recycled = append(s.recycled, n)
}

// stopped reports whether the search must wind down.
func (s *search) stopped() bool {
	return s.cancelled || s.truncated || s.gapHit
}

// exhausted is polled before every node: it records a cancellation or a
// spent node/deadline budget, and reports stopped.
func (s *search) exhausted() bool {
	switch {
	case s.ctx != nil && s.ctx.Err() != nil:
		s.cancelled, s.truncated = true, true
	case s.nodes >= s.maxNodes || (!s.deadline.IsZero() && time.Now().After(s.deadline)):
		s.truncated = true
	}
	return s.stopped()
}

// validateCandidate checks a candidate full-model point against bounds,
// integrality and every row, returning its minimisation-space objective.
// Validation runs against the caller's original rows — not the presolved
// image — so an accepted incumbent is feasible for the exact model as built.
func (s *search) validateCandidate(x []float64) (float64, bool) {
	if !s.c.m.satisfies(x) {
		return 0, false
	}
	// bestObj lives in the compiled LP's minimisation space so it compares
	// directly against node relaxation values.
	return s.c.lpSpace(s.c.modelObjective(x)), true
}

// satisfies reports whether x is a feasible point of the model as built:
// within bounds, integral on binaries, and within tolerance on every row.
func (m *Model) satisfies(x []float64) bool {
	if len(x) != len(m.vars) {
		return false
	}
	for i := range m.vars {
		v := &m.vars[i]
		if x[i] < v.lo-1e-6 || x[i] > v.hi+1e-6 {
			return false
		}
		if v.typ == Binary && math.Abs(x[i]-math.Round(x[i])) > intTol {
			return false
		}
	}
	for ri, sense := range m.rowSense {
		var lhs float64
		for k := m.rowStart[ri]; k < m.rowStart[ri+1]; k++ {
			lhs += m.rowCoef[k] * x[m.rowVar[k]]
		}
		rhs := m.rowRHS[ri]
		if !rowHolds(sense, lhs, rhs, 1e-6*(1+math.Abs(rhs))) {
			return false
		}
	}
	return true
}

// rowHolds reports whether lhs meets rhs under sense within tol.
func rowHolds(sense Sense, lhs, rhs, tol float64) bool {
	switch sense {
	case LE:
		return lhs <= rhs+tol
	case GE:
		return lhs >= rhs-tol
	case EQ:
		return math.Abs(lhs-rhs) <= tol
	}
	return true
}

// installIncumbent installs a validated point if it improves the incumbent,
// copying it into the scratch's incumbent buffer.
func (s *search) installIncumbent(x []float64, lpObj float64) bool {
	if lpObj < s.bestObj-1e-12 {
		s.bestObj = lpObj
		s.bestXBuf = append(s.bestXBuf[:0], x...)
		s.bestX = s.bestXBuf
		return true
	}
	return false
}

// acceptModelPoint validates and installs a candidate in one step.
func (s *search) acceptModelPoint(x []float64) bool {
	lpObj, ok := s.validateCandidate(x)
	if !ok {
		return false
	}
	return s.installIncumbent(x, lpObj)
}

// run drives the search: the root phase (root LP, dive heuristic, root
// branching) followed by the best-first tree loop. The search state after
// run reflects whether the tree was exhausted (proof) or a
// budget/gap/cancellation cut it short.
func (s *search) run() {
	s.processRoot()
	if !s.stopped() && len(s.open) > 0 {
		s.loop()
	}

	if !s.stopped() && !s.proofLost && len(s.open) == 0 {
		s.provedOptimal = s.bestX != nil
		if s.bestX == nil {
			s.provedInfeasible = true
		}
	}
}

// push enqueues a node.
func (s *search) push(n *bbNode) {
	n.seq = s.seq
	s.seq++
	heap.Push(&s.open, n)
}

func (s *search) pruneSlack() float64 {
	return s.absGap + 1e-9*(1+math.Abs(s.bestObj))
}

func (s *search) gapReached() bool {
	if s.bestX == nil || math.IsInf(s.rootBound, 0) {
		return false
	}
	gap := math.Abs(s.bestObj - s.rootBound)
	if s.gapTol > 0 && gap <= s.gapTol*(1+math.Abs(s.bestObj)) {
		return true
	}
	return s.absGap > 0 && gap <= s.absGap
}

// fracCand is one fractional binary of a node relaxation.
type fracCand struct {
	k    int     // LP-active index
	val  float64 // relaxation value
	frac float64 // distance from the nearest integer
}

// ensureLoaded lazily loads the compiled LP into the search's solver; its
// arenas are reused from previous Solve calls when large enough. A problem
// LoadCSR rejects is recorded on the search.
func (s *search) ensureLoaded() bool {
	if s.loaded {
		return true
	}
	if err := s.slv.LoadCSR(&s.c.lp); err != nil {
		s.err = err
		return false
	}
	s.loaded = true
	return true
}

// resolveRoot re-solves the unpinned root and classifies it; ok is false
// when the root phase must end (infeasibility proven or proof lost).
func (s *search) resolveRoot() (sol lp.Solution, xAct []float64, ok bool) {
	sol, xAct = s.solveNode(nil, s.xAct)
	s.lpIters += sol.Iters
	if sol.Status == lp.Infeasible {
		s.provedInfeasible = s.bestX == nil
		return sol, nil, false
	}
	if sol.Status != lp.Optimal || !sol.Feasible {
		s.proofLost = true
		return sol, nil, false
	}
	return sol, xAct, true
}

const (
	nodeFree    int8 = iota
	nodeAtZero       // binary pinned to 0
	nodeAtUpper      // binary pinned to 1 (its shifted upper bound)
)

// applyBounds diffs the node's pin set against what the solver currently
// has and applies only the changes, preserving the warm basis. A plunged
// child only adds pins, so the diff is one Fix and the re-solve is pure
// dual simplex. Jumping to another subtree would need Unfixes — those can
// leave released columns dual infeasible, costing bound flips and the dual
// pivots that repair them — so in that case the search first restores its
// saved near-root basis (whose pin set is a subset of any node's) and
// tightens from there instead.
func (s *search) applyBounds(bounds []boundFix) {
	for i := range s.target {
		s.target[i] = nodeFree
	}
	for _, b := range bounds {
		if b.lo {
			s.target[b.lpVar] = nodeAtUpper
		} else {
			s.target[b.lpVar] = nodeAtZero
		}
	}
	tightening := true
	for j, want := range s.target {
		if a := s.applied[j]; a != nodeFree && a != want {
			tightening = false
			break
		}
	}
	if !tightening && s.hasSnap && s.snapIsSubset() && s.slv.RestoreBasis() {
		copy(s.applied, s.snapApplied)
	}
	for j, want := range s.target {
		if s.applied[j] == want {
			continue
		}
		switch want {
		case nodeFree:
			s.slv.Unfix(j)
		case nodeAtZero:
			s.slv.Fix(j, false)
		case nodeAtUpper:
			s.slv.Fix(j, true)
		}
		s.applied[j] = want
	}
}

// snapIsSubset reports whether the saved basis's pin set only contains pins
// the current target also has, so restoring it needs no Unfix.
func (s *search) snapIsSubset() bool {
	for j, sa := range s.snapApplied {
		if sa != nodeFree && sa != s.target[j] {
			return false
		}
	}
	return true
}

// solveNode re-solves the base LP under the node's pins and expands the
// point into compiled-active coordinates (pinned variables included). The
// warm path allocates nothing.
func (s *search) solveNode(bounds []boundFix, into []float64) (lp.Solution, []float64) {
	if !s.ensureLoaded() {
		// Not a proof of anything: the search ends without one.
		return lp.Solution{Status: lp.IterLimit}, nil
	}
	s.applyBounds(bounds)
	sol := s.slv.ReSolve(lp.Options{Deadline: s.deadline, Ctx: s.ctx})
	if sol.X == nil {
		return sol, nil
	}
	copy(into, sol.X)
	return sol, into
}

// processRoot runs the root phase: the root relaxation, the rounding-dive
// heuristic and the first branch.
func (s *search) processRoot() {
	if s.exhausted() {
		return
	}
	s.nodes++

	sol, xAct := s.solveNode(nil, s.xAct)
	s.lpIters += sol.Iters
	switch {
	case sol.Status == lp.Infeasible:
		s.provedInfeasible = true
		return
	case sol.Status == lp.IterLimit && !sol.Feasible:
		s.proofLost = true
		return
	case !sol.Feasible:
		// An optimum that failed its feasibility re-check cannot bound
		// anything; the search ends with whatever incumbent the warm start
		// supplied.
		return
	}
	relax := sol.Objective

	// Rounding dive: pins every binary to its rounded root value and
	// re-solves; a feasible result seeds the incumbent that pruning needs.
	// When the caller supplied a warm start (SQPR's greedy plan) the
	// incumbent already exists, so the dive LP — and the root re-solve it
	// forces, since it leaves the solver at its leaf — are skipped.
	if s.bestX == nil {
		s.dive(xAct)
		var ok bool
		if sol, xAct, ok = s.resolveRoot(); !ok {
			return
		}
		relax = sol.Objective
	}
	s.rootBound = relax

	// The root basis is the restore point for subtree jumps.
	if sol.Status == lp.Optimal && sol.Feasible {
		s.slv.SaveBasis()
		copy(s.snapApplied, s.applied)
		s.hasSnap = true
	}

	if s.gapReached() {
		s.gapHit = true
		return
	}
	if relax >= s.bestObj-s.pruneSlack() {
		s.provedOptimal = s.bestX != nil
		return
	}

	s.collectFracs(xAct)
	if len(s.fracs) == 0 {
		s.acceptModelPoint(roundBinaries(s.c, s.c.toModelXInto(xAct, s.candBuf)))
		return
	}
	k, val := s.selectBranch()

	root := s.newNode()
	up, down := s.makeChildren(root, relax, k, val)
	s.freeNode(root)
	if val >= 0.5 {
		s.push(up)
		s.push(down)
	} else {
		s.push(down)
		s.push(up)
	}
}

// loop is the tree search: take a node — the plunged child when one is
// pending, otherwise the most promising open node — solve its relaxation
// warm, then branch, bound or fathom. Plunging dives depth-first along the
// preferred (rounded) branch, which finds incumbents early, while the
// best-first queue orders the remaining subtrees.
func (s *search) loop() {
	var plunge *bbNode
	for {
		var n *bbNode
		if plunge != nil {
			n, plunge = plunge, nil
		} else {
			if s.stopped() || len(s.open) == 0 {
				return
			}
			n = heap.Pop(&s.open).(*bbNode)
		}
		if s.exhausted() {
			s.freeNode(n)
			return
		}
		if n.est >= s.bestObj-s.pruneSlack() {
			s.freeNode(n)
			continue // bound already dominated by incumbent
		}
		s.nodes++

		sol, xAct := s.solveNode(n.bounds, s.xAct)
		s.lpIters += sol.Iters

		// The first optimal basis becomes the restore point for
		// cross-subtree jumps.
		if !s.hasSnap && sol.Status == lp.Optimal && sol.Feasible {
			s.slv.SaveBasis()
			copy(s.snapApplied, s.applied)
			s.hasSnap = true
		}

		plunge = s.commit(n, sol, xAct)
		s.freeNode(n)
	}
}

// collectFracs fills s.fracs with every fractional binary of xAct.
func (s *search) collectFracs(xAct []float64) {
	s.fracs = s.fracs[:0]
	for k, mi := range s.c.active {
		if s.c.m.vars[mi].typ != Binary {
			continue
		}
		v := xAct[k]
		f := math.Abs(v - math.Round(v))
		if f > intTol {
			s.fracs = append(s.fracs, fracCand{k: k, val: v, frac: f})
		}
	}
}

// dive pins every binary to its rounded root-LP value and re-solves the
// residual LP; a feasible result that validates becomes the incumbent.
func (s *search) dive(xRoot []float64) {
	c := s.c
	s.diveBounds = s.diveBounds[:0]
	for k, mi := range c.active {
		if c.m.vars[mi].typ != Binary {
			continue
		}
		s.diveBounds = append(s.diveBounds, boundFix{k, xRoot[k] >= 0.5})
	}
	sol, xd := s.solveNode(s.diveBounds, s.xDive)
	s.lpIters += sol.Iters
	if sol.Feasible && xd != nil {
		s.acceptModelPoint(roundBinaries(c, c.toModelXInto(xd, s.diveBuf)))
	}
}

// pcScore computes the pseudo-cost product score of a fractional candidate.
func (s *search) pcScore(fc fracCand) float64 {
	avg := 1.0
	if s.pcCnt > 0 {
		avg = s.pcSum / float64(s.pcCnt)
	}
	up, dn := avg, avg
	if s.pcUpN[fc.k] > 0 {
		up = s.pcUp[fc.k] / float64(s.pcUpN[fc.k])
	}
	if s.pcDnN[fc.k] > 0 {
		dn = s.pcDn[fc.k] / float64(s.pcDnN[fc.k])
	}
	const eps = 1e-6
	return math.Max(dn*fc.val, eps) * math.Max(up*(1-fc.val), eps)
}

// selectBranch picks the branching variable among s.fracs: only candidates
// of the highest branch-priority class are considered (the builder ranks
// admission d and availability y above flow x), and within the class the
// pseudo-cost product score decides, with fractionality then index as
// deterministic tie-breaks.
func (s *search) selectBranch() (int, float64) {
	if !s.reduce {
		// Ablated: plain most-fractional branching.
		best := s.fracs[0]
		for _, fc := range s.fracs[1:] {
			if fc.frac > best.frac {
				best = fc
			}
		}
		return best.k, best.val
	}
	bestIdx := -1
	bestScore := math.Inf(-1)
	var best fracCand
	for _, fc := range s.fracs {
		// Branch priorities break ties, they do not dictate: the builder
		// ranks admission d and availability y above flow x, and that
		// ranking decides between candidates whose pseudo-cost scores are
		// indistinguishable (common while pseudo-costs are uninitialised).
		// A variable whose observed degradations mark it as the
		// combinatorial bottleneck — the relay edge of a saturated link,
		// say — still wins regardless of class; a hard priority filter
		// measurably wanders on such models.
		sc := s.pcScore(fc)
		tie := sc <= bestScore+1e-9*(1+math.Abs(bestScore)) &&
			sc >= bestScore-1e-9*(1+math.Abs(bestScore))
		better := bestIdx < 0 || (!tie && sc > bestScore)
		if tie && bestIdx >= 0 {
			pa, pb := s.c.prio[fc.k], s.c.prio[best.k]
			better = pa > pb ||
				(pa == pb && (fc.frac > best.frac+1e-12 ||
					(fc.frac > best.frac-1e-12 && fc.k < best.k)))
		}
		if better {
			bestIdx, bestScore, best = fc.k, sc, fc
		}
	}
	return best.k, best.val
}

// makeChildren builds the two children of node n branching on variable k at
// fractional value val, inheriting n's pins.
func (s *search) makeChildren(n *bbNode, relax float64, k int, val float64) (up, down *bbNode) {
	build := func(atUpper bool) *bbNode {
		ch := s.newNode()
		// One exact-size growth at most: recycled nodes keep their backing,
		// so the steady-state search allocates no per-node bookkeeping.
		if need := len(n.bounds) + 1; cap(ch.bounds) < need {
			// Round the capacity up so recycled nodes converge on a size that
			// fits any node of the tree.
			ch.bounds = make([]boundFix, 0, (need/32+1)*32)
		}
		ch.bounds = append(ch.bounds, n.bounds...)
		ch.bounds = append(ch.bounds, boundFix{k, atUpper})
		ch.depth = n.depth + 1
		ch.est = relax
		ch.branchVar = k
		ch.branchUp = atUpper
		ch.parentEst = relax
		ch.branchDist = val
		if atUpper {
			ch.branchDist = 1 - val
		}
		if ch.branchDist < 1e-6 {
			ch.branchDist = 1e-6
		}
		return ch
	}
	return build(true), build(false)
}

// commit folds one solved relaxation into the search state: update
// pseudo-costs, prune, install an integral incumbent, or select a branching
// variable and expand. It returns the child to plunge into, if any.
func (s *search) commit(n *bbNode, sol lp.Solution, xAct []float64) *bbNode {
	solved := sol.Status == lp.Optimal && sol.Feasible
	relax := sol.Objective // compiled minimisation space
	// Checked builds verify bound monotonicity: a child subproblem only adds
	// constraints, so its relaxation can never beat the parent's bound.
	if invariant.Enabled && solved && n.branchVar >= 0 && relax < n.est-1e-6 {
		invariant.Failf("milp: child relaxation %g beats parent bound %g down the tree", relax, n.est)
	}
	// Pseudo-cost learning: the node's own relaxation measures the true
	// degradation of the branch that created it.
	if s.reduce && n.branchVar >= 0 && solved {
		delta := relax - n.parentEst
		if delta < 0 {
			delta = 0
		}
		unit := delta / n.branchDist
		if n.branchUp {
			s.pcUp[n.branchVar] += unit
			s.pcUpN[n.branchVar]++
		} else {
			s.pcDn[n.branchVar] += unit
			s.pcDnN[n.branchVar]++
		}
		s.pcSum += unit
		s.pcCnt++
	}

	switch {
	case sol.Status == lp.Infeasible:
		return nil
	case sol.Status == lp.IterLimit && !sol.Feasible:
		// The LP budget ran out before feasibility: the node was not
		// resolved, so the search keeps going but can no longer claim a
		// proof of optimality or infeasibility.
		s.proofLost = true
		return nil
	case !sol.Feasible:
		// An optimum that failed its feasibility re-check cannot be
		// pruned on; treat as failure to bound.
		return nil
	}
	if relax >= s.bestObj-s.pruneSlack() {
		return nil
	}
	s.collectFracs(xAct)
	if len(s.fracs) == 0 {
		s.acceptModelPoint(roundBinaries(s.c, s.c.toModelXInto(xAct, s.candBuf)))
		if s.gapReached() {
			s.gapHit = true
		}
		return nil
	}
	k, val := s.selectBranch()

	// Branch: plunge into the rounded side (depth-first dive) and queue the
	// sibling best-first.
	up, down := s.makeChildren(n, relax, k, val)
	preferred, sibling := up, down
	if val < 0.5 {
		preferred, sibling = down, up
	}
	preferred.seq = s.seq // plunged directly, never enters the heap
	s.seq++
	s.push(sibling)
	return preferred
}

// roundBinaries snaps near-integral binary values to exact integers so that
// incumbents are clean.
func roundBinaries(c *compiled, x []float64) []float64 {
	for i, v := range c.m.vars {
		if v.typ == Binary {
			r := math.Round(x[i])
			if math.Abs(x[i]-r) <= 10*intTol {
				x[i] = r
			}
		}
	}
	return x
}
