package lp

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

// grow returns s resized to length n, reusing its backing array when it
// is large enough; a fresh array is zeroed, a reused one keeps its values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
