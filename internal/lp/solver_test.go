package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoundedLP builds a random dense LP with finite bounds whose origin
// is feasible for the LE rows (non-negative RHS); a sprinkle of GE and EQ
// rows exercises EQ slacks and lazy activation.
func randomBoundedLP(rng *rand.Rand, n, mrows int) *Problem {
	p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.Float64()*4 - 2
		p.Upper[j] = 0.5 + rng.Float64()*2.5
	}
	for i := 0; i < mrows; i++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{j, rng.Float64()*2 - 0.5})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{rng.Intn(n), 1})
		}
		switch rng.Intn(5) {
		case 0: // GE row, loose enough to intersect the box often
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: GE, RHS: -rng.Float64()})
		case 1: // EQ row through a random box point, so it is satisfiable
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * p.Upper[j] * 0.5
			}
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: EQ, RHS: Eval(terms, x)})
		default:
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: LE, RHS: rng.Float64() * 3})
		}
	}
	return p
}

// fixedEquivalent builds a standalone Problem expressing the same fix set:
// at-zero fixes shrink the upper bound to 0, at-upper fixes pin the value
// with an equality row.
func fixedEquivalent(p *Problem, fixes map[int]bool) *Problem {
	q := &Problem{NumVars: p.NumVars}
	q.Cost = append([]float64(nil), p.Cost...)
	q.Upper = append([]float64(nil), p.Upper...)
	for _, c := range p.Cons {
		q.Cons = append(q.Cons, Constraint{
			Terms: append([]Term(nil), c.Terms...),
			Sense: c.Sense,
			RHS:   c.RHS,
		})
	}
	for j, atUpper := range fixes {
		if atUpper {
			q.Cons = append(q.Cons, Constraint{Terms: []Term{{j, 1}}, Sense: EQ, RHS: p.Upper[j]})
		} else {
			q.Upper[j] = 0
		}
	}
	return q
}

// TestWarmResolveMatchesColdSolve drives eager and lazy Solvers through
// randomized fix/unfix sequences and cross-checks every warm re-solve
// against a cold solve of an equivalent standalone problem.
func TestWarmResolveMatchesColdSolve(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 80; trial++ {
			n := 3 + rng.Intn(6)
			p := randomBoundedLP(rng, n, 1+rng.Intn(5))
			s := NewSolver()
			s.SetLazy(lazy)
			if err := s.Load(p); err != nil {
				t.Fatalf("lazy=%v trial %d: load: %v", lazy, trial, err)
			}
			first := s.ReSolve(Options{})
			ref := Solve(p, Options{})
			if first.Status != ref.Status {
				t.Fatalf("lazy=%v trial %d: cold status %v vs Solve %v", lazy, trial, first.Status, ref.Status)
			}

			fixes := make(map[int]bool)
			for step := 0; step < 12; step++ {
				j := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					s.Fix(j, false)
					fixes[j] = false
				case 1:
					s.Fix(j, true)
					fixes[j] = true
				case 2:
					s.Unfix(j)
					delete(fixes, j)
				}
				warm := s.ReSolve(Options{})
				want := Solve(fixedEquivalent(p, fixes), Options{})
				if warm.Status != want.Status {
					t.Fatalf("lazy=%v trial %d step %d (fixes %v): warm status %v, want %v",
						lazy, trial, step, fixes, warm.Status, want.Status)
				}
				if warm.Status != Optimal {
					continue
				}
				if math.Abs(warm.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
					t.Fatalf("lazy=%v trial %d step %d (fixes %v): warm objective %v, want %v (x=%v)",
						lazy, trial, step, fixes, warm.Objective, want.Objective, warm.X)
				}
				if !p.CheckFeasible(warm.X) {
					t.Fatalf("lazy=%v trial %d step %d: warm point infeasible: %v", lazy, trial, step, warm.X)
				}
				for j, atUpper := range fixes {
					wantV := 0.0
					if atUpper {
						wantV = p.Upper[j]
					}
					if math.Abs(warm.X[j]-wantV) > 1e-6 {
						t.Fatalf("lazy=%v trial %d step %d: fix on var %d not respected: x=%v want %v",
							lazy, trial, step, j, warm.X[j], wantV)
					}
				}
			}
		}
	}
}

// TestSaveRestoreBasisRoundTrip verifies that restoring a saved basis
// reproduces the saved optimum and that tightenings from the restored basis
// match cold solves — the branch-and-bound subtree-jump pattern.
func TestSaveRestoreBasisRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		p := randomBoundedLP(rng, n, 2+rng.Intn(4))
		s := NewSolver()
		s.SetLazy(trial%2 == 0)
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		base := s.ReSolve(Options{})
		if base.Status != Optimal {
			continue
		}
		baseObj := base.Objective
		s.SaveBasis()
		for round := 0; round < 4; round++ {
			fixes := map[int]bool{}
			for k := 0; k <= rng.Intn(3); k++ {
				fixes[rng.Intn(n)] = rng.Intn(2) == 0
			}
			if !s.RestoreBasis() {
				t.Fatalf("trial %d: RestoreBasis failed", trial)
			}
			for j, atUpper := range fixes {
				s.Fix(j, atUpper)
			}
			got := s.ReSolve(Options{})
			want := Solve(fixedEquivalent(p, fixes), Options{})
			if got.Status != want.Status {
				t.Fatalf("trial %d round %d (fixes %v): status %v want %v", trial, round, fixes, got.Status, want.Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d round %d (fixes %v): obj %v want %v", trial, round, fixes, got.Objective, want.Objective)
			}
		}
		if !s.RestoreBasis() {
			t.Fatalf("trial %d: final RestoreBasis failed", trial)
		}
		back := s.ReSolve(Options{})
		if back.Status != Optimal || math.Abs(back.Objective-baseObj) > 1e-6*(1+math.Abs(baseObj)) {
			t.Fatalf("trial %d: restored optimum %v (%v), want %v", trial, back.Objective, back.Status, baseObj)
		}
	}
}

// TestUnfixRestoresOriginalOptimum fixes every variable, releases them all,
// and expects the original optimum back.
func TestUnfixRestoresOriginalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		p := randomBoundedLP(rng, n, 3)
		base := Solve(p, Options{})
		if base.Status != Optimal {
			continue
		}
		s := NewSolver()
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		s.ReSolve(Options{})
		for j := 0; j < n; j++ {
			s.Fix(j, rng.Intn(2) == 0)
			s.ReSolve(Options{})
		}
		for j := 0; j < n; j++ {
			s.Unfix(j)
		}
		back := s.ReSolve(Options{})
		if back.Status != Optimal {
			t.Fatalf("trial %d: status %v after unfix-all", trial, back.Status)
		}
		if math.Abs(back.Objective-base.Objective) > 1e-6*(1+math.Abs(base.Objective)) {
			t.Fatalf("trial %d: objective %v after unfix-all, want %v", trial, back.Objective, base.Objective)
		}
	}
}

// TestReSolveSteadyStateAllocationFree asserts the warm re-solve path does
// not allocate: a bound fix, a re-solve, the undo and a second re-solve,
// the branch-and-bound inner loop.
func TestReSolveSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomBoundedLP(rng, 12, 8)
	s := NewSolver()
	s.SetLazy(true) // the production branch-and-bound configuration
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if sol := s.ReSolve(Options{}); sol.Status != Optimal {
		t.Fatalf("cold solve: %v", sol.Status)
	}
	j := 0
	allocs := testing.AllocsPerRun(200, func() {
		s.Fix(j%p.NumVars, j%2 == 0)
		s.ReSolve(Options{})
		s.Unfix(j % p.NumVars)
		s.ReSolve(Options{})
		j++
	})
	if allocs > 0 {
		t.Fatalf("warm ReSolve allocated %v times per run, want 0", allocs)
	}
}

// TestConcurrentIndependentSolvers exercises separate Solver instances from
// separate goroutines; run with -race to verify independence.
func TestConcurrentIndependentSolvers(t *testing.T) {
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			p := randomBoundedLP(rng, 8, 5)
			s := NewSolver()
			s.SetLazy(seed%2 == 0)
			if err := s.Load(p); err != nil {
				done <- err
				return
			}
			s.ReSolve(Options{})
			for i := 0; i < 40; i++ {
				j := rng.Intn(p.NumVars)
				s.Fix(j, rng.Intn(2) == 0)
				s.ReSolve(Options{})
				s.Unfix(j)
				s.ReSolve(Options{})
			}
			done <- nil
		}(int64(w + 1))
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowDualSensitivity checks RowDual against a finite-difference
// perturbation of the right-hand side.
func TestRowDualSensitivity(t *testing.T) {
	// min −x0 s.t. x0 <= 5 (row), x0 <= 10 (bound): optimum −5, dual −1.
	p := &Problem{
		NumVars: 1,
		Cost:    []float64{-1},
		Upper:   []float64{10},
		Cons:    []Constraint{{Terms: []Term{{0, 1}}, Sense: LE, RHS: 5}},
	}
	s := NewSolver()
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if sol := s.ReSolve(Options{}); sol.Status != Optimal || math.Abs(sol.Objective-(-5)) > 1e-9 {
		t.Fatalf("solve: %+v", sol)
	}
	if y := s.RowDual(0); math.Abs(y-(-1)) > 1e-9 {
		t.Fatalf("RowDual = %v want -1", y)
	}

	// GE variant: min x0 s.t. x0 >= 3 → dual +1.
	p2 := &Problem{
		NumVars: 1,
		Cost:    []float64{1},
		Upper:   []float64{10},
		Cons:    []Constraint{{Terms: []Term{{0, 1}}, Sense: GE, RHS: 3}},
	}
	s2 := NewSolver()
	if err := s2.Load(p2); err != nil {
		t.Fatal(err)
	}
	if sol := s2.ReSolve(Options{}); sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("solve: %+v", sol)
	}
	if y := s2.RowDual(0); math.Abs(y-1) > 1e-9 {
		t.Fatalf("GE RowDual = %v want 1", y)
	}
}
