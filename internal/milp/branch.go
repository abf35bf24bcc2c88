package milp

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"sqpr/internal/invariant"
	"sqpr/internal/lp"
)

// bbNode is one branch-and-bound subproblem: a set of pinned binaries
// (indices into compiled.active space) plus bookkeeping for best-first
// ordering and pseudo-cost updates. Nodes are pooled on the compiled arena.
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

// workerPool recycles workers — their lp.Solver arenas and all per-node
// scratch — across Solve calls, so a long-lived planner's branch-and-bound
// stops allocating fresh tableaus and buffers per submission. Solve calls on
// independent models may run on different goroutines and share the pool.
var workerPool = sync.Pool{New: func() any { return &worker{slv: lp.NewSolver()} }}

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

	s := &search{
		c:          c,
		ctx:        opts.Ctx,
		reduce:     !opts.DisableTreeReduction,
		maxNodes:   maxNodes,
		stallNodes: opts.StallNodes,
		deadline:   opts.Deadline,
		gapTol:     opts.GapTol,
		absGap:     opts.AbsGapTol,
		bestObj:    math.Inf(1), // minimisation space
	}
	s.initScratch()

	// Warm start: accept an externally computed feasible point.
	if opts.Incumbent != nil && len(opts.Incumbent) == len(m.vars) {
		s.acceptModelPoint(opts.Incumbent)
	}

	s.run()

	res := Result{
		Nodes: s.nodes, LPIters: s.lpIters, Cancelled: s.cancelled, Stalled: s.stalled,
		BudgetHit:     s.truncated && !s.stalled && !s.cancelled,
		PresolveFixed: c.presolveFixed,
		Factor:        s.factor,
		Err:           s.err,
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
		// bestX lives in the compiled scratch arena; the Result owns its X.
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

// search is the state of one branch-and-bound run.
type search struct {
	c        *compiled
	ctx      context.Context
	reduce   bool // presolve + pseudo-cost branching enabled
	maxNodes int
	deadline time.Time
	gapTol   float64
	absGap   float64

	stallNodes  int // stop after this many nodes without incumbent progress
	lastImprove int // node count at the last incumbent improvement

	open nodeHeap
	seq  int

	nodes   int
	lpIters int
	factor  lp.FactorStats // taken from the worker's solver at release

	bestX   []float64 // model-space incumbent (aliases compiled scratch)
	bestObj float64   // minimisation-space objective of incumbent

	err error // lp.Load rejected the compiled problem

	// Pseudo-costs per LP-active variable: sums of per-unit objective
	// degradation and observation counts, plus global averages used for
	// uninitialised candidates.
	pcUp, pcDn   []float64
	pcUpN, pcDnN []int32
	pcSum        float64
	pcCnt        int32

	rootBound        float64
	stalled          bool // ended via the stagnation stop
	provedOptimal    bool
	provedInfeasible bool
	truncated        bool // node/deadline budget exhausted mid-search
	proofLost        bool // an LP hit its budget: keep searching, drop proof
	gapHit           bool
	cancelled        bool
}

// initScratch wires the per-Solve scratch (heap backing, node pool,
// pseudo-cost arrays) to the compiled arena so repeated Solves reuse it.
func (s *search) initScratch() {
	c := s.c
	nAct := len(c.active)
	c.pcUp = growFloats(c.pcUp, nAct)
	c.pcDn = growFloats(c.pcDn, nAct)
	c.pcUpN = growInt32s(c.pcUpN, nAct)
	c.pcDnN = growInt32s(c.pcDnN, nAct)
	for k := 0; k < nAct; k++ {
		c.pcUp[k], c.pcDn[k] = 0, 0
		c.pcUpN[k], c.pcDnN[k] = 0, 0
	}
	s.pcUp, s.pcDn = c.pcUp, c.pcDn
	s.pcUpN, s.pcDnN = c.pcUpN, c.pcDnN
	s.open = c.openScratch[:0]
}

// finishScratch recycles remaining open nodes and returns the heap backing
// to the arena.
func (s *search) finishScratch() {
	for _, n := range s.open {
		if n != nil {
			s.freeNode(n)
		}
	}
	s.open = s.open[:0]
	s.c.openScratch = s.open
}

// newNode takes a node from the pool.
func (s *search) newNode() *bbNode {
	c := s.c
	if n := len(c.nodeFree); n > 0 {
		nd := c.nodeFree[n-1]
		c.nodeFree[n-1] = nil
		c.nodeFree = c.nodeFree[:n-1]
		nd.bounds = nd.bounds[:0]
		nd.depth, nd.est, nd.seq = 0, 0, 0
		nd.branchVar, nd.branchUp, nd.parentEst, nd.branchDist = -1, false, 0, 0
		return nd
	}
	return &bbNode{branchVar: -1}
}

// freeNode recycles a fathomed node.
func (s *search) freeNode(n *bbNode) {
	s.c.nodeFree = append(s.c.nodeFree, n)
}

// stopped reports whether the search must wind down.
func (s *search) stopped() bool {
	return s.cancelled || s.truncated || s.gapHit
}

// exhausted is polled before every node: it records a cancellation, a
// stagnation stop or a spent node/deadline budget, and reports stopped.
func (s *search) exhausted() bool {
	switch {
	case s.ctx != nil && s.ctx.Err() != nil:
		s.cancelled, s.truncated = true, true
	case s.stallNodes > 0 && s.bestX != nil && s.nodes-s.lastImprove >= s.stallNodes:
		s.stalled, s.truncated = true, true
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
	for ri := range m.rows {
		r := &m.rows[ri]
		var lhs float64
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		if !rowHolds(r.sense, lhs, r.rhs, 1e-6*(1+math.Abs(r.rhs))) {
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
// copying it into the arena-owned incumbent buffer.
func (s *search) installIncumbent(x []float64, lpObj float64) bool {
	if lpObj < s.bestObj-1e-12 {
		s.bestObj = lpObj
		s.c.bestXBuf = append(s.c.bestXBuf[:0], x...)
		s.bestX = s.c.bestXBuf
		s.lastImprove = s.nodes
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
	s.rootBound = math.Inf(-1)

	w := newWorker(s)
	s.processRoot(w)
	if !s.stopped() && len(s.open) > 0 {
		w.loop()
	}
	w.release()

	if !s.stopped() && !s.proofLost && len(s.open) == 0 {
		s.provedOptimal = s.bestX != nil
		if s.bestX == nil {
			s.provedInfeasible = true
		}
	}
	s.finishScratch()
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

// worker owns one warm LP solver over the compiled base problem plus the
// scratch buffers for bound diffing and candidate points, so processing a
// node allocates nothing in steady state.
type worker struct {
	s       *search
	slv     *lp.Solver
	loaded  bool
	target  []int8 // desired fix per active var for the current node
	applied []int8 // fix currently applied to the solver
	xAct    []float64
	xDive   []float64

	// hasSnap marks that the solver holds a saved basis whose fix set is
	// snapApplied; jumping to an unrelated subtree restores it so the node
	// re-solve stays pure dual simplex (bound tightenings only).
	hasSnap     bool
	snapApplied []int8

	fracs      []fracCand // fractional binaries of the current relaxation
	candBuf    []float64  // model-space integral candidate
	diveBuf    []float64  // model-space dive candidate
	diveBounds []boundFix
}

func newWorker(s *search) *worker {
	w := workerPool.Get().(*worker)
	nAct := len(s.c.active)
	nv := len(s.c.m.vars)
	w.s = s
	w.loaded = false
	w.hasSnap = false
	w.target = growInt8s(w.target, nAct)
	w.applied = growInt8s(w.applied, nAct)
	w.snapApplied = growInt8s(w.snapApplied, nAct)
	for k := 0; k < nAct; k++ {
		w.target[k], w.applied[k], w.snapApplied[k] = nodeFree, nodeFree, nodeFree
	}
	w.xAct = growFloats(w.xAct, nAct)
	w.xDive = growFloats(w.xDive, nAct)
	w.candBuf = growFloats(w.candBuf, nv)
	w.diveBuf = growFloats(w.diveBuf, nv)
	w.fracs = w.fracs[:0]
	w.diveBounds = w.diveBounds[:0]
	return w
}

// release detaches the worker's solver from the model — so the pool does
// not keep a dead planner's compiled constraint storage reachable — and
// recycles the worker with all its scratch.
func (w *worker) release() {
	if w.loaded {
		w.s.factor = w.slv.FactorStats()
	}
	w.slv.Detach()
	w.s = nil
	workerPool.Put(w)
}

// ensureLoaded lazily compiles the base LP into this worker's solver; the
// arena is reused from previous Solve calls when large enough. A problem
// Load rejects is recorded on the search.
func (w *worker) ensureLoaded() bool {
	if w.loaded {
		return true
	}
	// Lazy rows: SQPR models carry thousands of availability/acyclicity
	// rows of which only a handful bind at any node optimum, so the active
	// tableau stays small.
	w.slv.SetLazy(true)
	if err := w.slv.Load(&w.s.c.base); err != nil {
		w.s.err = err
		return false
	}
	w.loaded = true
	return true
}

// resolveRoot re-solves the unpinned root and classifies it; ok is false
// when the root phase must end (infeasibility proven or proof lost).
func (s *search) resolveRoot(w *worker) (sol lp.Solution, xAct []float64, ok bool) {
	sol, xAct = w.solveNode(nil, w.xAct)
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
// pivots that repair them — so in that case the worker first restores its
// saved near-root basis (whose pin set is a subset of any node's) and
// tightens from there instead.
func (w *worker) applyBounds(bounds []boundFix) {
	for i := range w.target {
		w.target[i] = nodeFree
	}
	for _, b := range bounds {
		if b.lo {
			w.target[b.lpVar] = nodeAtUpper
		} else {
			w.target[b.lpVar] = nodeAtZero
		}
	}
	tightening := true
	for j, want := range w.target {
		if a := w.applied[j]; a != nodeFree && a != want {
			tightening = false
			break
		}
	}
	if !tightening && w.hasSnap && w.snapIsSubset() && w.slv.RestoreBasis() {
		copy(w.applied, w.snapApplied)
	}
	for j, want := range w.target {
		if w.applied[j] == want {
			continue
		}
		switch want {
		case nodeFree:
			w.slv.Unfix(j)
		case nodeAtZero:
			w.slv.Fix(j, false)
		case nodeAtUpper:
			w.slv.Fix(j, true)
		}
		w.applied[j] = want
	}
}

// snapIsSubset reports whether the saved basis's pin set only contains pins
// the current target also has, so restoring it needs no Unfix.
func (w *worker) snapIsSubset() bool {
	for j, sa := range w.snapApplied {
		if sa != nodeFree && sa != w.target[j] {
			return false
		}
	}
	return true
}

// solveNode re-solves the base LP under the node's pins and expands the
// point into compiled-active coordinates (pinned variables included). The
// warm path allocates nothing.
func (w *worker) solveNode(bounds []boundFix, into []float64) (lp.Solution, []float64) {
	if !w.ensureLoaded() {
		// Not a proof of anything: the search ends without one.
		return lp.Solution{Status: lp.IterLimit}, nil
	}
	w.applyBounds(bounds)
	sol := w.slv.ReSolve(lp.Options{Deadline: w.s.deadline, Ctx: w.s.ctx})
	if sol.X == nil {
		return sol, nil
	}
	copy(into, sol.X)
	return sol, into
}

// processRoot runs the root phase: the root relaxation, the rounding-dive
// heuristic and the first branch.
func (s *search) processRoot(w *worker) {
	if s.exhausted() {
		return
	}
	s.nodes++

	sol, xAct := w.solveNode(nil, w.xAct)
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
		w.dive(xAct)
		var ok bool
		if sol, xAct, ok = s.resolveRoot(w); !ok {
			return
		}
		relax = sol.Objective
	}
	s.rootBound = relax

	// The root basis is the restore point for subtree jumps.
	if sol.Status == lp.Optimal && sol.Feasible {
		w.slv.SaveBasis()
		copy(w.snapApplied, w.applied)
		w.hasSnap = true
	}

	if s.gapReached() {
		s.gapHit = true
		return
	}
	if relax >= s.bestObj-s.pruneSlack() {
		s.provedOptimal = s.bestX != nil
		return
	}

	w.collectFracs(xAct)
	if len(w.fracs) == 0 {
		s.acceptModelPoint(roundBinaries(s.c, s.c.toModelXInto(xAct, w.candBuf)))
		return
	}
	k, val := w.selectBranch()

	root := s.newNode()
	up, down := w.makeChildren(root, relax, k, val)
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
func (w *worker) loop() {
	s := w.s
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

		sol, xAct := w.solveNode(n.bounds, w.xAct)
		s.lpIters += sol.Iters

		// The first optimal basis becomes the restore point for
		// cross-subtree jumps.
		if !w.hasSnap && sol.Status == lp.Optimal && sol.Feasible {
			w.slv.SaveBasis()
			copy(w.snapApplied, w.applied)
			w.hasSnap = true
		}

		plunge = w.commit(n, sol, xAct)
		s.freeNode(n)
	}
}

// collectFracs fills w.fracs with every fractional binary of xAct.
func (w *worker) collectFracs(xAct []float64) {
	s := w.s
	w.fracs = w.fracs[:0]
	for k, mi := range s.c.active {
		if s.c.m.vars[mi].typ != Binary {
			continue
		}
		v := xAct[k]
		f := math.Abs(v - math.Round(v))
		if f > intTol {
			w.fracs = append(w.fracs, fracCand{k: k, val: v, frac: f})
		}
	}
}

// dive pins every binary to its rounded root-LP value and re-solves the
// residual LP; a feasible result that validates becomes the incumbent.
func (w *worker) dive(xRoot []float64) {
	c := w.s.c
	w.diveBounds = w.diveBounds[:0]
	for k, mi := range c.active {
		if c.m.vars[mi].typ != Binary {
			continue
		}
		w.diveBounds = append(w.diveBounds, boundFix{k, xRoot[k] >= 0.5})
	}
	sol, xd := w.solveNode(w.diveBounds, w.xDive)
	w.s.lpIters += sol.Iters
	if sol.Feasible && xd != nil {
		w.s.acceptModelPoint(roundBinaries(c, c.toModelXInto(xd, w.diveBuf)))
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

// selectBranch picks the branching variable among w.fracs: only candidates
// of the highest branch-priority class are considered (the builder ranks
// admission d and availability y above flow x), and within the class the
// pseudo-cost product score decides, with fractionality then index as
// deterministic tie-breaks.
func (w *worker) selectBranch() (int, float64) {
	s := w.s
	if !s.reduce {
		// Ablated: plain most-fractional branching.
		best := w.fracs[0]
		for _, fc := range w.fracs[1:] {
			if fc.frac > best.frac {
				best = fc
			}
		}
		return best.k, best.val
	}
	bestIdx := -1
	bestScore := math.Inf(-1)
	var best fracCand
	for _, fc := range w.fracs {
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
func (w *worker) makeChildren(n *bbNode, relax float64, k int, val float64) (up, down *bbNode) {
	s := w.s
	build := func(atUpper bool) *bbNode {
		ch := s.newNode()
		// One exact-size growth at most: pooled nodes keep their backing,
		// so the steady-state search allocates no per-node bookkeeping.
		if need := len(n.bounds) + 1; cap(ch.bounds) < need {
			// Round the capacity up so pooled nodes converge on a size that
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
func (w *worker) commit(n *bbNode, sol lp.Solution, xAct []float64) *bbNode {
	s := w.s
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
	w.collectFracs(xAct)
	if len(w.fracs) == 0 {
		s.acceptModelPoint(roundBinaries(s.c, s.c.toModelXInto(xAct, w.candBuf)))
		if s.gapReached() {
			s.gapHit = true
		}
		return nil
	}
	k, val := w.selectBranch()

	// Branch: plunge into the rounded side (depth-first dive) and queue the
	// sibling best-first.
	up, down := w.makeChildren(n, relax, k, val)
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
