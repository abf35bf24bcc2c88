package lp

import "math"

// Numerical tolerances for the simplex method, shared by the sparse Solver
// and the test-only dense oracle (dense_test.go).
const (
	costTol  = 1e-9 // reduced-cost optimality tolerance
	pivotTol = 1e-9 // minimum admissible pivot magnitude
	ratioTol = 1e-9 // ratio-test tie tolerance
)

// Fix targets for structural variables (see Solver.Fix).
const (
	fixFree  int8 = iota // variable ranges over [0, upper]
	fixZero              // variable pinned at 0
	fixUpper             // variable pinned at its upper bound
)

// scanEps is the per-variable movement below which a variable's rows are
// not re-evaluated by the incremental lazy-row scan. Unchecked drift per
// variable is bounded by 2·scanEps, which a row's coefficient sum keeps
// well inside the FeasTol-scaled row tolerances.
const scanEps = 1e-9

// constRowsFeasible reports whether a zero-variable problem is feasible.
func constRowsFeasible(p *Problem) bool {
	for _, c := range p.Cons {
		switch c.Sense {
		case LE:
			if 0 > c.RHS+FeasTol {
				return false
			}
		case GE:
			if 0 < c.RHS-FeasTol {
				return false
			}
		case EQ:
			if math.Abs(c.RHS) > FeasTol {
				return false
			}
		}
	}
	return true
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}
