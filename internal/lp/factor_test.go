package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// explicitBasis returns the current basis matrix B of s densely, slot by
// slot: column t is basis[t] over the active rows in its current
// orientation.
func explicitBasis(s *Solver) [][]float64 {
	b := make([][]float64, s.m)
	for i := range b {
		b[i] = make([]float64, s.m)
	}
	for t, col := range s.basis[:s.m] {
		if col >= s.nStruct {
			k := col - s.nStruct
			b[k][t] = s.slackCoef[k]
			continue
		}
		sign := 1.0
		if s.flipped[col] {
			sign = -1
		}
		for e := s.ccStart[col]; e < s.ccStart[col+1]; e++ {
			if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
				b[slot][t] += sign * s.ccCoef[e]
			}
		}
	}
	return b
}

// colDotRef is the column-wise reference for computeDuals' row-wise
// expansion: a_jᵉᶠᶠ·y over the active rows for column j under the current
// orientation, walking column j of the CSC matrix.
func colDotRef(s *Solver, j int, y []float64) float64 {
	if j >= s.nStruct {
		t := j - s.nStruct
		return s.slackCoef[t] * y[t]
	}
	sum := 0.0
	for e := s.ccStart[j]; e < s.ccStart[j+1]; e++ {
		if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
			sum += s.ccCoef[e] * y[slot]
		}
	}
	if s.flipped[j] {
		return -sum
	}
	return sum
}

func closeTo(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// TestFactorSolvesMatchDense drives random sparse bases through the
// solver's own update paths — pivots (pivotCommit's column etas), basic
// re-orientations (flipBasic's negation etas), lazy rows bordered onto the
// factors (activateRow → border/extend, one row eta each) and the
// refactorizations maybeRefactor schedules in between — and after every
// update checks the kernels against a dense solve of the explicit basis:
// FTRAN and BTRAN of random sparse vectors, the tableau column (ftranCol)
// and basis-inverse row (btranRow), and computeDuals' row-wise reduced
// costs against a column-wise expansion of the same duals. A row-wise LU
// copy left stale by a border shows up here as a BTRAN mismatch.
func TestFactorSolvesMatchDense(t *testing.T) {
	const tol = 1e-9
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		m0 := 4 + rng.Intn(14)
		n := m0 + 4 + rng.Intn(10)
		const lazy = 10

		// m0 equality rows; column j < m0 has a dominant entry in row j so
		// the structural start basis factorizes. Lazy inequality rows only
		// enter as row etas.
		p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.Float64()*2 - 1
			p.Upper[j] = 1 + float64(rng.Intn(3))
		}
		sparseRow := func(density float64) []Term {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					terms = append(terms, Term{j, rng.Float64()*2 - 1})
				}
			}
			return terms
		}
		for i := 0; i < m0; i++ {
			terms := sparseRow(0.2)
			terms = slices.DeleteFunc(terms, func(tm Term) bool { return tm.Var == i })
			terms = append(terms, Term{i, 4 + rng.Float64()})
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: EQ, RHS: rng.Float64()})
		}
		for i := 0; i < lazy; i++ {
			sense := LE
			if rng.Intn(2) == 0 {
				sense = GE
			}
			p.Cons = append(p.Cons, Constraint{Terms: sparseRow(0.3), Sense: sense, RHS: rng.Float64()})
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

		randomSparse := func(size int) []float64 {
			v := make([]float64, s.mAll)
			for i := 0; i < size; i++ {
				if rng.Float64() < 0.3 {
					v[i] = rng.Float64()*2 - 1
				}
			}
			return v
		}
		nonbasic := func() int {
			for {
				if j := rng.Intn(s.n); !s.inBasis[j] {
					return j
				}
			}
		}
		check := func(step int, what string) {
			t.Helper()
			where := func(kernel string) string {
				return fmt.Sprintf("trial %d step %d after %s: %s", trial, step, what, kernel)
			}
			b := explicitBasis(s)
			for _, trans := range []bool{false, true} {
				v := randomSparse(s.m)
				want := denseSolve(b, v[:s.m], trans)
				kernel := "FTRAN"
				if trans {
					kernel = "BTRAN"
					s.btran(v)
				} else {
					s.ftran(v)
				}
				for i := range want {
					if !closeTo(v[i], want[i], tol) {
						t.Fatalf("%s: z[%d]=%.15g, dense solve %.15g", where(kernel), i, v[i], want[i])
					}
				}
			}

			r := rng.Intn(s.m)
			s.btranRow(r)
			er := make([]float64, s.m)
			er[r] = 1
			want := denseSolve(b, er, true)
			for i := range want {
				if !closeTo(s.rho[i], want[i], tol) {
					t.Fatalf("%s: rho[%d]=%.15g, dense solve %.15g", where("btranRow"), i, s.rho[i], want[i])
				}
			}

			j := nonbasic()
			s.ftranCol(j, s.alpha)
			a := make([]float64, s.m)
			if j >= s.nStruct {
				a[j-s.nStruct] = s.slackCoef[j-s.nStruct]
			} else {
				sign := 1.0
				if s.flipped[j] {
					sign = -1
				}
				for e := s.ccStart[j]; e < s.ccStart[j+1]; e++ {
					if slot := s.rowSlot[s.ccRow[e]]; slot >= 0 {
						a[slot] += sign * s.ccCoef[e]
					}
				}
			}
			want = denseSolve(b, a, false)
			for i := range want {
				if !closeTo(s.alpha[i], want[i], tol) {
					t.Fatalf("%s: alpha[%d]=%.15g, dense solve %.15g", where("ftranCol"), i, s.alpha[i], want[i])
				}
			}

			s.computeDuals()
			for k := 0; k < s.n; k++ {
				ref := 0.0
				if !s.inBasis[k] {
					ref = s.costOf(k) - colDotRef(s, k, s.rho)
				}
				if !closeTo(s.d[k], ref, tol) {
					t.Fatalf("%s: d[%d]=%.15g, column-wise %.15g", where("computeDuals"), k, s.d[k], ref)
				}
			}
		}
		check(0, "refactorize")
		// The start basis is the restore point: rewinding to it shrinks the
		// basis below factorizations made since, and the row etas after that
		// extend factors whose arenas hold longer, stale rows.
		s.warm = true
		s.SaveBasis()

		refactors, restores := s.stats.Refactors, 0
		for step := 1; step <= 60; step++ {
			var what string
			switch k := rng.Intn(6); {
			case k == 0 && s.nInactive > 0:
				for {
					if i := m0 + rng.Intn(lazy); !s.activeRows[i] {
						s.activateRow(i)
						break
					}
				}
				what = "row eta"
			case k == 1:
				r := rng.Intn(s.m)
				if s.basis[r] >= s.nStruct {
					continue // a slack has no finite bound to re-orient against
				}
				s.flipBasic(r)
				what = "negation eta"
			case k == 2 && s.m > m0+2:
				s.RestoreBasis()
				if !s.refactorize() {
					t.Fatalf("trial %d step %d: restored basis did not factorize", trial, step)
				}
				restores++
				what = "restore"
			default:
				j := nonbasic()
				s.ftranCol(j, s.alpha)
				r, best := -1, 0.1 // keep the basis well conditioned
				for i, a := range s.alpha[:s.m] {
					if a := math.Abs(a); a > best {
						r, best = i, a
					}
				}
				if r < 0 {
					continue
				}
				s.btranRow(r)
				s.buildPivotRow()
				s.pivotCommit(r, j)
				what = "pivot eta"
			}
			if st := s.maybeRefactor(); st != 0 {
				t.Fatalf("trial %d step %d: scheduled refactorize failed", trial, step)
			}
			check(step, what)
		}
		if s.stats.Refactors == refactors || s.stats.RowEtas == 0 || restores == 0 {
			t.Fatalf("trial %d: %d refactorizations, %d row etas and %d restores; the walk must cover all three",
				trial, s.stats.Refactors-refactors, s.stats.RowEtas, restores)
		}
	}
}
