package lp

import (
	"math"
	"math/rand"
	"testing"

	"sqpr/internal/invariant"
)

// Bordered activation: a lazy row that activates while the factors are
// valid extends them (one trivial LU pivot, one row eta) instead of marking
// them stale. The tests below pin the row eta's algebra against a dense
// solve, the no-refactorize property by count, the rewind through
// RestoreBasis, and the answers against the dense oracle.

// denseSolve solves A·z = v (trans false) or Aᵀ·z = v (trans true) by
// Gaussian elimination with partial pivoting on a copy of A.
func denseSolve(a [][]float64, v []float64, trans bool) []float64 {
	n := len(v)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			if trans {
				m[i][j] = a[j][i]
			} else {
				m[i][j] = a[i][j]
			}
		}
		m[i][n] = v[i]
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		m[k], m[p] = m[p], m[k]
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j <= n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	z := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * z[j]
		}
		z[i] = s / m[i][i]
	}
	return z
}

// TestRowEtaMatchesDenseSolve factorizes a random nonsingular B, then
// interleaves column etas (basis column replaced), negation etas (basis
// column negated) and row etas (B bordered by a random row and a ±1 slack
// column) while mirroring each update on a dense copy; after every update
// FTRAN and BTRAN through LU+etas must agree with a dense solve against the
// mirrored matrix.
func TestRowEtaMatchesDenseSolve(t *testing.T) {
	const tol = 1e-8
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		m0 := 2 + rng.Intn(6)
		spare := 6 // rows the basis may grow by

		// m0 equality rows over m0 structural columns carry B; the spare
		// inequality rows only reserve arena capacity and stay inactive.
		p := &Problem{NumVars: m0, Cost: make([]float64, m0), Upper: make([]float64, m0)}
		dense := make([][]float64, m0)
		for i := 0; i < m0; i++ {
			dense[i] = make([]float64, m0)
			var terms []Term
			for j := 0; j < m0; j++ {
				c := rng.Float64()*2 - 1
				if i == j {
					c += 4
				}
				dense[i][j] = c
				terms = append(terms, Term{j, c})
			}
			p.Upper[i] = 1 // column i; the solves below never read the box
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: EQ, RHS: 1})
		}
		for i := 0; i < spare; i++ {
			p.Cons = append(p.Cons, Constraint{Terms: []Term{{0, 1}}, Sense: LE, RHS: 1e9})
		}
		s := NewSolver()
		s.SetLazy(true)
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		s.rebuild(false)
		for j := 0; j < s.n; j++ {
			s.inBasis[j], s.rowOf[j] = false, -1
		}
		for j := 0; j < m0; j++ {
			s.basis[j], s.inBasis[j], s.rowOf[j] = j, true, j
		}
		if !s.refactorize() {
			t.Fatalf("trial %d: start basis did not factorize", trial)
		}

		check := func(step int, what string) {
			t.Helper()
			size := len(dense)
			v := make([]float64, size)
			for i := range v {
				v[i] = rng.Float64()*2 - 1
			}
			for _, trans := range []bool{false, true} {
				got := append(make([]float64, 0, s.mAll), v...)
				if trans {
					s.btran(got)
				} else {
					s.ftran(got)
				}
				want := denseSolve(dense, v, trans)
				for i := range want {
					if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
						t.Fatalf("trial %d step %d after %s (size %d, trans=%v): z[%d]=%.12g, dense solve %.12g",
							trial, step, what, size, trans, i, got[i], want[i])
					}
				}
			}
		}
		check(0, "refactorize")

		rows := 0
		for step := 1; step <= 14; step++ {
			size := len(dense)
			switch k := rng.Intn(3); {
			case k == 0 && rows < spare:
				// Row eta: border B with row w and slack coefficient sigma.
				sigma := 1.0
				if rng.Intn(2) == 0 {
					sigma = -1
				}
				w := make([]float64, size+1)
				for i := 0; i < size; i++ {
					if rng.Float64() < 0.6 {
						w[i] = rng.Float64()*2 - 1
						s.eta.idx = append(s.eta.idx, int32(i))
						s.eta.val = append(s.eta.val, w[i])
					}
				}
				w[size] = sigma
				s.lu.extend(size)
				s.eta.close(size, sigma, true)
				for i := range dense {
					dense[i] = append(dense[i], 0)
				}
				dense = append(dense, w)
				rows++
				check(step, "row eta")
			case k == 1:
				// Column eta: replace basis column r by a random column a.
				a := make([]float64, size)
				for i := range a {
					a[i] = rng.Float64()*2 - 1
				}
				alpha := append(make([]float64, 0, s.mAll), a...)
				s.ftran(alpha)
				r := rng.Intn(size)
				if math.Abs(alpha[r]) < 0.1 {
					continue // keep the mirrored matrix well conditioned
				}
				for i, av := range alpha[:size] {
					if i != r && av != 0 {
						s.eta.idx = append(s.eta.idx, int32(i))
						s.eta.val = append(s.eta.val, av)
					}
				}
				s.eta.close(r, alpha[r], false)
				for i := range dense {
					dense[i][r] = a[i]
				}
				check(step, "column eta")
			default:
				r := rng.Intn(size)
				s.eta.appendNeg(r)
				for i := range dense {
					dense[i][r] = -dense[i][r]
				}
				check(step, "negation eta")
			}
		}
	}
}

// chainLP is a lazy LP whose optimum takes one activation wave per row:
// min −Σx over x ∈ [0,10]ⁿ with x0 ≤ 5 and x_k − x_{k−1} ≤ 2. With no row
// active every variable sits at 10, where only the first row is violated;
// repairing row k pulls x_k down and only then violates row k+1. The unique
// optimum is x_k = 5+2k with row duals −(n−k).
func chainLP(n int) *Problem {
	p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = -1
		p.Upper[j] = 10
	}
	p.Cons = append(p.Cons, Constraint{Terms: []Term{{0, 1}}, Sense: LE, RHS: 5})
	for k := 1; k < n; k++ {
		p.Cons = append(p.Cons, Constraint{Terms: []Term{{k, 1}, {k - 1, -1}}, Sense: LE, RHS: 2})
	}
	return p
}

// TestActivationKeepsFactorization solves the chain LP warm from the
// all-fixed-at-zero point: the re-solve after releasing the variables needs
// three activation waves, each of which borders the factors, and none of
// them may cost a factorization. The answer is checked against the dense
// oracle, duals included.
func TestActivationKeepsFactorization(t *testing.T) {
	const n = 3
	p := chainLP(n)
	at10 := []float64{10, 10, 10}
	for i := 1; i < n; i++ {
		if Eval(p.Cons[i].Terms, at10) > p.Cons[i].RHS {
			t.Fatalf("row %d is violated at the unconstrained optimum: the waves would merge", i)
		}
	}

	s := NewSolver()
	s.SetLazy(true)
	d := NewDenseSolver()
	d.SetLazy(true)
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(p); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		s.Fix(j, false)
		d.Fix(j, false)
	}
	if sol := s.ReSolve(Options{}); sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("all-fixed solve: %+v", sol)
	}
	d.ReSolve(Options{})
	before := s.FactorStats()
	if before.RowEtas != 0 {
		t.Fatalf("all-fixed solve activated rows: %+v", before)
	}

	for j := 0; j < n; j++ {
		s.Unfix(j)
		d.Unfix(j)
	}
	got := s.ReSolve(Options{})
	want := d.ReSolve(Options{})
	after := s.FactorStats()
	if after.RowEtas != n {
		t.Fatalf("RowEtas = %d, want one per wave (%d)", after.RowEtas, n)
	}
	if after.Refactors != before.Refactors {
		t.Fatalf("Refactors rose %d → %d across %d activation-only waves", before.Refactors, after.Refactors, n)
	}
	if !s.factorValid || s.lu.m != n || s.m != n {
		t.Fatalf("after the waves: factorValid=%v lu.m=%d m=%d, want true %d %d", s.factorValid, s.lu.m, s.m, n, n)
	}
	if got.Status != Optimal || want.Status != Optimal {
		t.Fatalf("status sparse=%v dense=%v", got.Status, want.Status)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("objective sparse=%v dense=%v", got.Objective, want.Objective)
	}
	for j := 0; j < n; j++ {
		if math.Abs(got.X[j]-want.X[j]) > 1e-9 || math.Abs(got.X[j]-float64(5+2*j)) > 1e-9 {
			t.Fatalf("x[%d] sparse=%v dense=%v want %d", j, got.X[j], want.X[j], 5+2*j)
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(s.RowDual(i)-d.RowDual(i)) > 1e-9 || math.Abs(s.RowDual(i)+float64(n-i)) > 1e-9 {
			t.Fatalf("RowDual(%d) sparse=%v dense=%v want %d", i, s.RowDual(i), d.RowDual(i), -(n - i))
		}
	}
}

// TestRestoreRewindsBorderedFactors saves a basis, grows the factors past
// it through bordered activations, and restores: the bordered factors
// describe a larger basis than the snapshot's, so the next solve must
// refactorize at the snapshot's size, and from there on match cold solves.
func TestRestoreRewindsBorderedFactors(t *testing.T) {
	const n = 3
	p := chainLP(n)
	s := NewSolver()
	s.SetLazy(true)
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	fixes := map[int]bool{1: false, 2: false}
	for j := range fixes {
		s.Fix(j, false)
	}
	if sol := s.ReSolve(Options{}); sol.Status != Optimal || math.Abs(sol.Objective+5) > 1e-9 {
		t.Fatalf("first solve: %+v", sol)
	}
	s.SaveBasis()
	if s.snap.m != 1 {
		t.Fatalf("snapshot holds %d rows, want 1", s.snap.m)
	}

	s.Unfix(1)
	s.Unfix(2)
	full := s.ReSolve(Options{})
	if full.Status != Optimal || !s.factorValid || s.lu.m <= s.snap.m {
		t.Fatalf("grown solve: status %v factorValid=%v lu.m=%d snap.m=%d", full.Status, s.factorValid, s.lu.m, s.snap.m)
	}
	fullObj := full.Objective

	if !s.RestoreBasis() {
		t.Fatal("RestoreBasis failed")
	}
	before := s.FactorStats().Refactors
	back := s.ReSolve(Options{}) // the snapshot's fix set: no row activates
	want := Solve(fixedEquivalent(p, fixes), Options{})
	if got := s.FactorStats().Refactors; got != before+1 {
		t.Fatalf("re-solve after restore refactorized %d times, want 1", got-before)
	}
	if s.lu.m != s.snap.m || s.m != s.snap.m {
		t.Fatalf("after restore: lu.m=%d m=%d, want the snapshot's %d", s.lu.m, s.m, s.snap.m)
	}
	if back.Status != want.Status || math.Abs(back.Objective-want.Objective) > 1e-9 {
		t.Fatalf("restored solve %v/%v, cold solve %v/%v", back.Status, back.Objective, want.Status, want.Objective)
	}

	s.Unfix(1)
	s.Unfix(2)
	again := s.ReSolve(Options{})
	cold := Solve(p, Options{})
	if again.Status != Optimal || math.Abs(again.Objective-cold.Objective) > 1e-9 || math.Abs(again.Objective-fullObj) > 1e-9 {
		t.Fatalf("regrown solve %v/%v, cold %v, first pass %v", again.Status, again.Objective, cold.Objective, fullObj)
	}
	if !p.CheckFeasible(again.X) {
		t.Fatalf("regrown point infeasible: %v", again.X)
	}
}

// TestDenseSparseLazyWavesEquivalence is the equivalence suite's arm for
// bordered activation: LPs with several times more lazy rows than the
// other arms, so a solve interleaves waves of row etas with the pivots that
// repair them, cross-checked against the dense oracle cold and through a
// Fix/Unfix sequence. Every problem must border at least once, or the arm
// tests nothing.
func TestDenseSparseLazyWavesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	bordered := 0
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(10)
		p := randomBoundedLP(rng, n, 15+rng.Intn(25))
		d := NewDenseSolver()
		d.SetLazy(true)
		sp := NewSolver()
		sp.SetLazy(true)
		if err := d.Load(p); err != nil {
			t.Fatalf("dense load: %v", err)
		}
		if err := sp.Load(p); err != nil {
			t.Fatalf("sparse load: %v", err)
		}
		checkAgree(t, tname("waves-root", true, trial), p, d.ReSolve(Options{}), sp.ReSolve(Options{}))
		for step := 0; step < 10; step++ {
			j := rng.Intn(n)
			atUpper := rng.Float64() < 0.5
			d.Fix(j, atUpper)
			sp.Fix(j, atUpper)
			checkAgree(t, tname("waves-fix", true, trial*100+step), p, d.ReSolve(Options{}), sp.ReSolve(Options{}))
			if rng.Float64() < 0.7 {
				d.Unfix(j)
				sp.Unfix(j)
			}
		}
		if sp.FactorStats().RowEtas > 0 {
			bordered++
		}
	}
	if bordered < 20 {
		t.Fatalf("only %d of 30 problems bordered the factors", bordered)
	}
}

// TestActivationWaveAllocationFree asserts the branch-and-bound node
// pattern — restore the snapshot, change a bound, re-solve through a fresh
// activation wave — does not allocate in steady state, on a wave several
// times longer than a refactor interval (one row eta per row, all appended
// before the next prepWarm can empty the file).
func TestActivationWaveAllocationFree(t *testing.T) {
	const rows = 300
	p := &Problem{NumVars: 2, Cost: []float64{-1, -1}, Upper: []float64{1, 1}}
	for i := 0; i < rows; i++ {
		p.Cons = append(p.Cons, Constraint{
			Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1 + float64(i)/(2*rows),
		})
	}
	s := NewSolver()
	s.SetLazy(true)
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	s.Fix(0, false)
	s.Fix(1, false)
	if sol := s.ReSolve(Options{}); sol.Status != Optimal {
		t.Fatalf("all-fixed solve: %v", sol.Status)
	}
	s.SaveBasis() // no row active
	var sol Solution
	node := func() {
		s.RestoreBasis()
		s.Unfix(0)
		s.Unfix(1)
		sol = s.ReSolve(Options{})
	}
	before := s.FactorStats().RowEtas
	// Checked builds allocate scratch in the post-wave invariant checks.
	if allocs := testing.AllocsPerRun(50, node); allocs > 0 && !invariant.Enabled {
		t.Fatalf("restore + unfix + re-solve allocated %v times per run, want 0", allocs)
	}
	if got := s.FactorStats().RowEtas - before; got != 51*rows {
		t.Fatalf("%d row etas over 51 nodes, want one wave of %d each", got, rows)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+1) > 1e-9 {
		t.Fatalf("node solve: %v objective %v, want optimal -1", sol.Status, sol.Objective)
	}
}
