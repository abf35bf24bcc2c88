package milp

import (
	"math"
	"testing"
)

// TestAbsGapStopsEarly verifies that a large absolute gap makes the solver
// return a good-enough incumbent quickly (the SQPR admission-dominance
// trick): with AbsGapTol larger than the spread of small objective terms,
// the search must still never misjudge a high-value binary.
func TestAbsGapStopsEarly(t *testing.T) {
	m := NewModel()
	big := m.AddBinary("big")
	var smallTerms []Term
	smalls := make([]Var, 6)
	for i := range smalls {
		smalls[i] = m.AddBinary("small")
		smallTerms = append(smallTerms, Term{smalls[i], 0.1})
	}
	terms := append([]Term{{big, 100}}, smallTerms...)
	m.SetObjective(true, terms...)
	// Capacity admits the big item plus a couple of small ones.
	cons := append([]Term{{big, 1}}, smallTerms...)
	_ = cons
	weights := []Term{{big, 1}}
	for _, s := range smalls {
		weights = append(weights, Term{s, 1})
	}
	m.AddCons("cap", LE, 3, weights...)

	res := m.Solve(Options{AbsGapTol: 5})
	if res.X == nil {
		t.Fatalf("no incumbent: %v", res.Status)
	}
	if math.Round(res.X[big]) != 1 {
		t.Fatal("absolute gap sacrificed the dominant binary")
	}
	if res.Objective < 100 {
		t.Fatalf("objective %v below the dominant term", res.Objective)
	}
}

func TestRelativeGapTermination(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.SetObjective(true, Term{a, 10}, Term{b, 10})
	m.AddCons("cap", LE, 2, Term{a, 1}, Term{b, 1})
	res := m.Solve(Options{GapTol: 0.5})
	if res.X == nil {
		t.Fatalf("no incumbent: %v", res.Status)
	}
	if res.Objective < 10 {
		t.Fatalf("objective %v", res.Objective)
	}
}

func TestBoundNeverBelowIncumbentMax(t *testing.T) {
	// For maximisation, Bound >= Objective must hold whenever both exist.
	m := NewModel()
	vars := make([]Var, 8)
	terms := make([]Term, 8)
	weights := make([]Term, 8)
	for i := range vars {
		vars[i] = m.AddBinary("v")
		terms[i] = Term{vars[i], float64(3 + i%4)}
		weights[i] = Term{vars[i], float64(2 + i%3)}
	}
	m.SetObjective(true, terms...)
	m.AddCons("cap", LE, 9, weights...)
	res := m.Solve(Options{})
	if res.X == nil {
		t.Fatalf("no incumbent: %v", res.Status)
	}
	if res.Bound < res.Objective-1e-6 {
		t.Fatalf("bound %v < objective %v", res.Bound, res.Objective)
	}
}

func TestNoSolutionStatus(t *testing.T) {
	// A model whose root LP is fractional and which has no integer point
	// ends with no incumbent after branching; the status must reflect it.
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	c := m.AddBinary("c")
	m.SetObjective(true, Term{a, 1}, Term{b, 1}, Term{c, 1})
	// x+y+z == 1.5 is integer-infeasible but LP-feasible.
	m.AddCons("half", EQ, 1.5, Term{a, 1}, Term{b, 1}, Term{c, 1})
	res := m.Solve(Options{})
	if res.Status != InfeasibleMIP && res.Status != NoSolution {
		t.Fatalf("status %v for integer-infeasible model", res.Status)
	}
	if res.X != nil {
		t.Fatal("produced an incumbent for an infeasible model")
	}
}

func TestMinimiseWithAbsGap(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.SetObjective(false, Term{a, 2}, Term{b, 5})
	m.AddCons("need", GE, 1, Term{a, 1}, Term{b, 1})
	res := m.Solve(Options{AbsGapTol: 0.1})
	if res.X == nil || res.Objective > 2+0.2 {
		t.Fatalf("min with abs gap: obj=%v status=%v", res.Objective, res.Status)
	}
}

func TestSolveNodeSubstitutionConsistency(t *testing.T) {
	// Fixing a binary by branching must produce the same optimum as fixing
	// it in the model (the node-LP substitution path vs presolve path).
	build := func() (*Model, Var, Var) {
		m := NewModel()
		a := m.AddBinary("a")
		b := m.AddBinary("b")
		m.SetObjective(true, Term{a, 3}, Term{b, 2})
		m.AddCons("cap", LE, 1, Term{a, 1}, Term{b, 1})
		return m, a, b
	}
	m1, a1, _ := build()
	m1.Fix(a1, 0)
	r1 := m1.Solve(Options{})

	m2, _, _ := build()
	// Force the same outcome via an explicit constraint: a == 0.
	m2.AddCons("fix", EQ, 0, Term{Var(0), 1})
	r2 := m2.Solve(Options{})

	if math.Abs(r1.Objective-r2.Objective) > 1e-9 {
		t.Fatalf("fix-path mismatch: %v vs %v", r1.Objective, r2.Objective)
	}
}
