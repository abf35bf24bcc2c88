package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Solve is the one-shot form the tests use: compile p into a fresh Solver
// and run a cold solve. It never mutates p.
func Solve(p *Problem, opts Options) Solution {
	if p.NumVars == 0 {
		if p.Validate() != nil {
			return Solution{Status: Infeasible}
		}
		// Constant problem: feasible iff every row admits the zero vector.
		if constRowsFeasible(p) {
			return Solution{Status: Optimal, X: []float64{}, Feasible: true}
		}
		return Solution{Status: Infeasible}
	}
	var s Solver
	if err := s.Load(p); err != nil {
		// Structural errors are programming bugs of the caller; surface
		// them as infeasibility rather than panicking inside the solver.
		return Solution{Status: Infeasible}
	}
	sol := s.ReSolve(opts)
	if sol.X != nil {
		// Detach the point from the solver's arena; the solver dies here
		// but the contract is that Solve's X is caller-owned.
		sol.X = append([]float64(nil), sol.X...)
	}
	return sol
}

func TestEmptyProblem(t *testing.T) {
	sol := Solve(&Problem{}, Options{})
	if sol.Status != Optimal || !sol.Feasible {
		t.Fatalf("empty problem: got %v feasible=%v", sol.Status, sol.Feasible)
	}
}

func TestSimpleMaxViaMin(t *testing.T) {
	// max 3x+2y s.t. x+y<=4, x+3y<=6, 0<=x,y<=10  → x=4,y=0, obj 12.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{-3, -2},
		Upper:   []float64{10, 10},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 4},
			{Terms: []Term{{0, 1}, {1, 3}}, Sense: LE, RHS: 6},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Objective, -12, 1e-6) {
		t.Fatalf("objective %v want -12 (x=%v)", sol.Objective, sol.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+y s.t. x+y>=2, x-y=0, x,y<=10 → x=y=1, obj 2.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 1},
		Upper:   []float64{10, 10},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 2},
			{Terms: []Term{{0, 1}, {1, -1}}, Sense: EQ, RHS: 0},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Objective, 2, 1e-6) || !approx(sol.X[0], 1, 1e-6) {
		t.Fatalf("got obj=%v x=%v", sol.Objective, sol.X)
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// max x+y with x<=0.5, y<=0.25, x+y<=2 → obj 0.75.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{-1, -1},
		Upper:   []float64{0.5, 0.25},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 2},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.Objective, -0.75, 1e-6) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Objective, sol.X)
	}
}

func TestUpperBoundBindingViaConstraint(t *testing.T) {
	// min -x s.t. x<=3 (bound), x>=1. Optimal x=3.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{-1},
		Upper:   []float64{3},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 1},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.X[0], 3, 1e-6) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x>=2 with x<=1 upper bound.
	p := &Problem{
		NumVars: 1,
		Upper:   []float64{1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 2},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Infeasible {
		t.Fatalf("status=%v want infeasible", sol.Status)
	}
}

func TestInfeasibleContradictoryEqualities(t *testing.T) {
	p := &Problem{
		NumVars: 2,
		Upper:   []float64{10, 10},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 2},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Infeasible {
		t.Fatalf("status=%v want infeasible", sol.Status)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Klee–Minty-flavoured degenerate rows should still terminate.
	p := &Problem{
		NumVars: 3,
		Cost:    []float64{-100, -10, -1},
		Upper:   []float64{10, 1000, 100000},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{0, 20}, {1, 1}}, Sense: LE, RHS: 100},
			{Terms: []Term{{0, 200}, {1, 20}, {2, 1}}, Sense: LE, RHS: 10000},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.Objective, -10000, 1e-4) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -2  ⇔  x >= 2; min x over x <= 10 → 2.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{1},
		Upper:   []float64{10},
		Cons: []Constraint{
			{Terms: []Term{{0, -1}}, Sense: LE, RHS: -2},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.X[0], 2, 1e-6) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equalities create a redundant row the solver must cope with.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{1, 2},
		Upper:   []float64{10, 10},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 3},
			{Terms: []Term{{0, 2}, {1, 2}}, Sense: EQ, RHS: 6},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.Objective, 3, 1e-6) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Objective, sol.X)
	}
}

func TestCheckFeasible(t *testing.T) {
	p := &Problem{
		NumVars: 2,
		Upper:   []float64{1, 1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1.5},
		},
	}
	if !p.CheckFeasible([]float64{1, 0.5}) {
		t.Fatal("expected feasible")
	}
	if p.CheckFeasible([]float64{1, 1}) {
		t.Fatal("expected infeasible (row)")
	}
	if p.CheckFeasible([]float64{-1, 0}) {
		t.Fatal("expected infeasible (bound)")
	}
}

func TestValidateRejectsBadIndices(t *testing.T) {
	p := &Problem{NumVars: 1, Cons: []Constraint{{Terms: []Term{{5, 1}}, Sense: LE, RHS: 0}}}
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestLoadRejectsFreeColumn: every column must be boxed, whether its upper
// bound is missing or explicitly infinite.
func TestLoadRejectsFreeColumn(t *testing.T) {
	rows := []Constraint{{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 1}}
	for _, upper := range [][]float64{nil, {1}, {1, math.Inf(1)}} {
		p := &Problem{NumVars: 2, Cost: []float64{1, 1}, Upper: upper, Cons: rows}
		if err := NewSolver().Load(p); err == nil {
			t.Fatalf("Load accepted upper bounds %v", upper)
		}
	}
	p := &Problem{NumVars: 2, Cost: []float64{1, 1}, Upper: []float64{1, 2}, Cons: rows}
	if err := NewSolver().Load(p); err != nil {
		t.Fatalf("Load rejected a boxed problem: %v", err)
	}
}

// TestRandomLPsFeasibleOptimal cross-checks the solver on random dense LPs:
// any point the solver declares optimal must be feasible, and its objective
// must not be worse than a cloud of random feasible points.
func TestRandomLPsFeasibleOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		mrows := 1 + rng.Intn(6)
		p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.Float64()*4 - 2
			p.Upper[j] = 0.5 + rng.Float64()*3
		}
		for i := 0; i < mrows; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				terms = append(terms, Term{j, rng.Float64()*2 - 0.5})
			}
			// Right-hand sides chosen so the origin is feasible: b >= 0 for LE.
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: LE, RHS: rng.Float64() * 3})
		}
		sol := Solve(p, Options{})
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if !sol.Feasible || !p.CheckFeasible(sol.X) {
			t.Fatalf("trial %d: optimal point infeasible: %v", trial, sol.X)
		}
		// Sample feasible points; none may beat the reported optimum.
		for k := 0; k < 50; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * p.Upper[j]
			}
			if p.CheckFeasible(x) && p.Objective(x) < sol.Objective-1e-6 {
				t.Fatalf("trial %d: random point %v beats optimum (%v < %v)", trial, x, p.Objective(x), sol.Objective)
			}
		}
	}
}

// TestQuickTransportLP property-tests a family of tiny transportation LPs
// whose optimum is known in closed form: route everything over the cheaper
// of two arcs subject to its capacity.
func TestQuickTransportLP(t *testing.T) {
	f := func(c1u, c2u uint8, demU uint8) bool {
		c1 := 1 + float64(c1u%7)
		c2 := 1 + float64(c2u%7)
		dem := 1 + float64(demU%5)
		cap1 := 3.0
		p := &Problem{
			NumVars: 2,
			Cost:    []float64{c1, c2},
			Upper:   []float64{cap1, 10},
			Cons: []Constraint{
				{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: dem},
			},
		}
		sol := Solve(p, Options{})
		if sol.Status != Optimal {
			return false
		}
		var want float64
		if c1 <= c2 {
			x1 := math.Min(cap1, dem)
			want = c1*x1 + c2*(dem-x1)
		} else {
			want = c2 * dem
		}
		return approx(sol.Objective, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
