// Package lp implements a sparse revised-simplex solver for linear programs
// over boxed variables.
//
// The solver handles problems of the form
//
//	minimise  c·x
//	subject to  a_i·x {<=,>=,=} b_i   for every constraint i
//	            0 <= x_j <= u_j      for every variable j (u_j finite)
//
// Upper bounds are handled inside the simplex via complement substitution
// (x̄ = u − x), so they do not add rows. The basis inverse is an LU
// factorization plus an eta file (see Solver). There is one method, the
// bounded-variable dual simplex: a cold solve starts it from the slack
// basis with negative costs shifted to zero, and a warm re-solve after
// bound changes starts it from the previous basis. Because every column is
// boxed, any column left dual infeasible is made feasible by a bound flip,
// so the problem can never be unbounded. In lazy mode rows join the basis
// only once a solution violates them. The solver is the substrate for the
// branch-and-bound MILP solver in internal/milp, which in turn stands in
// for the CPLEX dependency of the SQPR paper.
package lp

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Sense is the relational sense of a linear constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int8(s))
}

// Term is a single coefficient on a variable inside a linear expression.
type Term struct {
	Var  int     // variable index in [0, NumVars)
	Coef float64 // coefficient
}

// Constraint is one linear row of the problem.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program in the canonical form documented on the
// package comment, one Constraint per row; Solver.Load flattens it into a
// CSR. The zero value is an empty (trivially optimal) problem.
type Problem struct {
	// NumVars is the number of structural variables.
	NumVars int
	// Cost holds the minimisation objective coefficients; missing entries
	// (shorter slice) are treated as zero.
	Cost []float64
	// Upper holds per-variable upper bounds; missing entries are +Inf,
	// which Solver.Load rejects. All lower bounds are zero by construction.
	Upper []float64
	// Cons are the linear constraints.
	Cons []Constraint
}

// CSR is a linear program in the form Solver reads it: the cost and upper
// bound of every column, and the constraint rows stored once in
// compressed-sparse-row form. Row i is Sense[i] and RHS[i] over the terms
// Coef[k]·x[Var[k]] for k in [Start[i], Start[i+1]); Start has one entry
// more than there are rows and begins at 0. Cost and Upper have NumVars
// entries each.
type CSR struct {
	NumVars int
	Cost    []float64
	Upper   []float64
	Start   []int32
	Var     []int32
	Coef    []float64
	Sense   []Sense
	RHS     []float64
}

// Objective computes c·x for the program's cost vector.
func (a *CSR) Objective(x []float64) float64 {
	var sum float64
	for j, c := range a.Cost {
		sum += c * x[j]
	}
	return sum
}

// eval computes a·x for row i.
func (a *CSR) eval(i int, x []float64) float64 {
	var sum float64
	for k := a.Start[i]; k < a.Start[i+1]; k++ {
		sum += a.Coef[k] * x[a.Var[k]]
	}
	return sum
}

// violated reports whether row i misses its right-hand side at x by more
// than FeasTol scaled by the right-hand side's magnitude.
func (a *CSR) violated(i int, x []float64) bool {
	lhs, rhs := a.eval(i, x), a.RHS[i]
	tol := FeasTol * (1 + math.Abs(rhs))
	switch a.Sense[i] {
	case LE:
		return lhs > rhs+tol
	case GE:
		return lhs < rhs-tol
	}
	return math.Abs(lhs-rhs) > tol
}

// Status reports the outcome of a solve.
type Status int8

// Solver outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint set has no feasible point.
	Infeasible
	// IterLimit means the iteration budget or deadline was exhausted
	// before optimality was proven. X holds the best feasible point found
	// if Feasible is true.
	IterLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // structural variable values (valid when Feasible)
	Objective float64   // c·X
	Feasible  bool      // X satisfies all constraints and bounds
	Iters     int       // dual simplex pivots, cold pass and activation waves included
}

// Options tunes a solve.
type Options struct {
	// Deadline aborts the solve when exceeded; zero means no deadline.
	Deadline time.Time
	// Ctx, when non-nil, is polled periodically during iteration; a
	// cancelled context aborts the solve like an exhausted deadline.
	Ctx context.Context
}

// FeasTol is the feasibility tolerance the solver classifies a point by:
// a row may miss its right-hand side by FeasTol scaled by 1 + |rhs|.
const FeasTol = 1e-6
