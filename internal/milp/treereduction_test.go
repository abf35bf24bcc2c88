package milp

import (
	"math"
	"math/rand"
	"testing"
)

// mixedRandomModel builds a random MILP with the row shapes of the SQPR
// planner: knapsack budget rows, pairwise conflicts, an exactly-one
// assignment row, and big-M indicator rows linking binaries to continuous
// variables. Most instances are feasible; infeasible ones are fine too —
// conformance compares outcomes, not feasibility.
func mixedRandomModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 8 + rng.Intn(16)
	vars := make([]Var, n)
	objTerms := make([]Term, 0, n+2)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary("b")
		objTerms = append(objTerms, Term{vars[i], 1 + rng.Float64()*14})
	}
	// Budget rows.
	for r := 0; r < 1+rng.Intn(3); r++ {
		terms := make([]Term, 0, n)
		total := 0.0
		for i := 0; i < n; i++ {
			w := 1 + rng.Float64()*9
			terms = append(terms, Term{vars[i], w})
			total += w
		}
		m.AddCons("cap", LE, total*(0.3+rng.Float64()*0.4), terms...)
	}
	// Conflict pairs.
	for i := 0; i+1 < n; i += 2 + rng.Intn(3) {
		m.AddCons("pair", LE, 1, Term{vars[i], 1}, Term{vars[i+1], 1})
	}
	// Exactly-one assignment row over a random subset.
	if n >= 6 {
		k := 3 + rng.Intn(3)
		terms := make([]Term, 0, k)
		for i := 0; i < k; i++ {
			terms = append(terms, Term{vars[rng.Intn(n)], 1})
		}
		m.AddCons("one", EQ, 1, terms...)
	}
	// Big-M indicator: y <= 3 + 4*b for a continuous y, like the acyclicity
	// rows' indicator structure.
	y := m.AddContinuous(0, 10, "y")
	objTerms = append(objTerms, Term{y, 0.5 + rng.Float64()})
	m.AddCons("link", LE, 3, Term{y, 1}, Term{vars[rng.Intn(n)], -4})
	m.SetObjective(true, objTerms...)
	// Priorities like the planner's: a high class on a few binaries.
	for i := 0; i < n; i += 3 {
		m.SetBranchPriority(vars[i], 2)
	}
	return m
}

// TestTreeReductionConformance solves 50 seeded instances with the
// tree-reduction layer on and off, to proven optimality, and requires
// identical statuses and objectives: presolve and pseudo-cost branching
// must never change what is optimal — only how fast it is proven. CI runs
// this under -race.
func TestTreeReductionConformance(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := mixedRandomModel(rand.New(rand.NewSource(seed)))
		b := mixedRandomModel(rand.New(rand.NewSource(seed)))
		ra := a.Solve(Options{MaxNodes: 500000})
		rb := b.Solve(Options{MaxNodes: 500000, DisableTreeReduction: true})
		if ra.Status != rb.Status {
			t.Fatalf("seed %d: status %v (reduced) vs %v (plain)", seed, ra.Status, rb.Status)
		}
		if ra.Status != OptimalMIP && ra.Status != InfeasibleMIP {
			t.Fatalf("seed %d: not solved to proof: %v", seed, ra.Status)
		}
		if ra.Status == OptimalMIP &&
			math.Abs(ra.Objective-rb.Objective) > 1e-6*(1+math.Abs(rb.Objective)) {
			t.Fatalf("seed %d: objective %v (reduced) vs %v (plain)", seed, ra.Objective, rb.Objective)
		}
	}
}

// TestPresolveFixesForcedBinaries checks the activity-based fixing rule: a
// binary whose coefficient exceeds the residual budget must be eliminated
// before the search.
func TestPresolveFixesForcedBinaries(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a") // cost 9 > budget 5: forced off
	b := m.AddBinary("b")
	m.SetObjective(true, Term{a, 10}, Term{b, 1})
	m.AddCons("cpu", LE, 5, Term{a, 9}, Term{b, 2})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP {
		t.Fatalf("status %v", res.Status)
	}
	if res.PresolveFixed == 0 {
		t.Fatal("presolve did not fix the over-budget binary")
	}
	if math.Round(res.X[a]) != 0 || math.Round(res.X[b]) != 1 {
		t.Fatalf("wrong optimum: %v", res.X)
	}
}

// TestPresolveReachesFixpoint checks that presolve ends at the fixpoint of
// its row reductions rather than after a fixed number of sweeps. One budget
// row holding twelve over-budget binaries needs twelve fixes, each of which
// changes the row's activity; all must happen before the search, which then
// has nothing left to branch on. On the random models, re-applying the row
// reductions to every live row after presolve must change nothing, and a
// re-solve warm-started at the optimum (which checked builds hold presolve
// to) must return it.
func TestPresolveReachesFixpoint(t *testing.T) {
	m := NewModel()
	var terms, obj []Term
	for i := 0; i < 12; i++ {
		v := m.AddBinary("big")
		terms = append(terms, Term{v, 9})
		obj = append(obj, Term{v, 10})
	}
	small := m.AddBinary("small")
	m.AddCons("cpu", LE, 5, append(terms, Term{small, 2})...)
	m.SetObjective(true, append(obj, Term{small, 1})...)
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Round(res.X[small]) != 1 {
		t.Fatalf("status %v, x %v", res.Status, res.X)
	}
	if res.PresolveFixed < 12 || res.Nodes != 1 {
		t.Fatalf("presolve fixed %d binaries (want ≥ 12), search took %d nodes (want 1)", res.PresolveFixed, res.Nodes)
	}

	checked := 0
	for seed := int64(0); seed < 50; seed++ {
		m := mixedRandomModel(rand.New(rand.NewSource(seed)))
		c, err := m.compile(true, nil)
		if err != nil {
			continue // presolve proved it infeasible
		}
		checked++
		// presolveRow counts every fix, tightening and drop it makes.
		counts := [3]int{c.presolveFixed, c.presolveTightened, c.presolveDropped}
		for ri := range c.prhs {
			if c.pskip[ri] {
				continue
			}
			if err := c.presolveRow(ri); err != nil {
				t.Fatalf("seed %d: row %d (%s) infeasible on a second look: %v", seed, ri, m.rowName[ri], err)
			}
			if now := [3]int{c.presolveFixed, c.presolveTightened, c.presolveDropped}; now != counts {
				t.Fatalf("seed %d: row %d (%s) still reduces after presolve: (fixed, tightened, dropped) %v → %v", seed, ri, m.rowName[ri], counts, now)
			}
		}

		opt := m.Solve(Options{MaxNodes: 500000})
		if opt.Status != OptimalMIP {
			continue
		}
		warm := m.Solve(Options{MaxNodes: 500000, Incumbent: opt.X})
		if warm.Status != OptimalMIP || math.Abs(warm.Objective-opt.Objective) > 1e-6*(1+math.Abs(opt.Objective)) {
			t.Fatalf("seed %d: warm re-solve %v at %v, cold %v", seed, warm.Status, warm.Objective, opt.Objective)
		}
	}
	if checked < 25 {
		t.Fatalf("only %d of 50 random models survived presolve", checked)
	}
}

// TestPresolveInfeasible checks that activity bounds prove infeasibility
// without a search.
func TestPresolveInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.AddCons("need", GE, 3, Term{a, 1}, Term{b, 1})
	res := m.Solve(Options{})
	if res.Status != InfeasibleMIP {
		t.Fatalf("status %v", res.Status)
	}
	if res.Nodes != 0 {
		t.Fatalf("explored %d nodes for a presolve-infeasible model", res.Nodes)
	}
}

// reducible reports whether presolveRow's term loop would fix or tighten a
// term of row ri, or prove it infeasible, over the current bounds: the
// loop's own tests, run without the settled shortcut. The row must have
// passed presolveRow's infeasibility and redundancy checks.
func reducible(c *compiled, ri int) bool {
	lo, hi := c.m.rowStart[ri], c.m.rowStart[ri+1]
	vars, coefs := c.m.rowVar[lo:hi], c.pcoef[lo:hi]
	sense, rhs := c.m.rowSense[ri], c.prhs[ri]
	minAct, maxAct, _ := c.rowActivity(vars, coefs)
	tol := 1e-7 * (1 + math.Abs(rhs))
	for k, mi := range vars {
		a := coefs[k]
		if a == 0 || !c.free[mi] {
			continue
		}
		minOthers, maxOthers := minAct, maxAct-a
		if a < 0 {
			minOthers, maxOthers = minAct-a, maxAct
		}
		switch sense {
		case LE:
			if minOthers > rhs+tol || minOthers+a > rhs+tol {
				return true
			}
			if d := rhs - maxOthers; a > 0 && d > tol && d < a-tol {
				return true
			}
			if na := rhs - maxOthers; a < 0 && na > a+tol && na <= 0 {
				return true
			}
		case GE:
			if maxOthers < rhs-tol || maxOthers+a < rhs-tol {
				return true
			}
			if na := rhs - minOthers; a > 0 && na < a-tol && na >= 0 {
				return true
			}
			if d := minOthers - rhs; a < 0 && d > tol && d < -a-tol {
				return true
			}
		case EQ:
			if minOthers > rhs+tol || maxOthers < rhs-tol || minOthers+a > rhs+tol || maxOthers+a < rhs-tol {
				return true
			}
		}
	}
	return false
}

// TestSettledRowsHaveNoReduction holds presolveRow's shortcut to the tests
// it skips: on random rows, many with a right-hand side a hair either side
// of the point where a coefficient starts to reduce, no row that settled
// calls finished would have had a fix, a tightening or an infeasibility
// proof in its term loop.
func TestSettledRowsHaveNoReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nSettled, nReducible := 0, 0
	for trial := 0; trial < 20000; trial++ {
		m := NewModel()
		var terms []Term
		for k := 0; k < 1+rng.Intn(5); k++ {
			var v Var
			if rng.Intn(4) == 0 {
				v = m.AddContinuous(0, float64(1+rng.Intn(20)), "y")
			} else {
				v = m.AddBinary("b")
			}
			a := float64(rng.Intn(9) - 4)
			if rng.Intn(2) == 0 {
				a = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)))
			}
			terms = append(terms, Term{v, a})
		}
		sense := Sense(rng.Intn(3))
		m.AddCons("r", sense, 0, terms...)
		c, err := m.compile(false, nil)
		if err != nil || len(m.rowVar) == 0 {
			continue
		}
		vars, coefs := m.rowVar, c.pcoef
		minAct, maxAct, big := c.rowActivity(vars, coefs)
		// A right-hand side that puts one of the two slacks near a
		// coefficient's magnitude, nudged by a relative step down to
		// rounding, or a plain random one.
		target := math.Abs(coefs[rng.Intn(len(coefs))]) * (1 + []float64{0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6}[rng.Intn(9)])
		var rhs float64
		switch rng.Intn(3) {
		case 0:
			rhs = minAct + target
			rhs -= 1e-7 * (1 + math.Abs(rhs))
		case 1:
			rhs = maxAct - target
			rhs += 1e-7 * (1 + math.Abs(rhs))
		default:
			rhs = minAct + (maxAct-minAct)*rng.Float64()
		}
		c.prhs[0] = rhs
		tol := 1e-7 * (1 + math.Abs(rhs))
		switch {
		case sense != GE && minAct > rhs+tol, sense != LE && maxAct < rhs-tol:
			continue // presolveRow proves it infeasible first
		case sense == LE && maxAct <= rhs+tol, sense == GE && minAct >= rhs-tol:
			continue // presolveRow drops it first
		}
		red := reducible(c, 0)
		if red {
			nReducible++
		}
		if settled(minAct, maxAct, rhs, tol, big) {
			nSettled++
			if red {
				t.Fatalf("trial %d: %v row %v·%v rhs %.17g settled, yet its term loop reduces it", trial, sense, coefs, vars, rhs)
			}
		}
	}
	t.Logf("%d settled rows, %d reducible ones", nSettled, nReducible)
	if nSettled < 1000 || nReducible < 1000 {
		t.Fatalf("only %d settled and %d reducible rows: the trials miss the shortcut", nSettled, nReducible)
	}
}
