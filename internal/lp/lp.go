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
// package comment. The zero value is an empty (trivially optimal) problem.
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
	// MaxIters caps total simplex iterations; 0 selects a size-derived
	// default.
	MaxIters int
}

// upper returns the upper bound of variable j.
func (p *Problem) upper(j int) float64 {
	if j < len(p.Upper) {
		return p.Upper[j]
	}
	return math.Inf(1)
}

// cost returns the objective coefficient of variable j.
func (p *Problem) cost(j int) float64 {
	if j < len(p.Cost) {
		return p.Cost[j]
	}
	return 0
}

// Validate checks the structural integrity of the problem: variable indices
// in range, finite coefficients, and non-negative upper bounds.
func (p *Problem) Validate() error {
	for j := 0; j < len(p.Upper) && j < p.NumVars; j++ {
		if p.Upper[j] < 0 || math.IsNaN(p.Upper[j]) {
			return fmt.Errorf("lp: variable %d has invalid upper bound %v", j, p.Upper[j])
		}
	}
	if len(p.Cost) > p.NumVars {
		return fmt.Errorf("lp: cost vector longer (%d) than variable count (%d)", len(p.Cost), p.NumVars)
	}
	if len(p.Upper) > p.NumVars {
		return fmt.Errorf("lp: bound vector longer (%d) than variable count (%d)", len(p.Upper), p.NumVars)
	}
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return fmt.Errorf("lp: constraint %d references variable %d outside [0,%d)", i, t.Var, p.NumVars)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient on variable %d", i, t.Var)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite right-hand side", i)
		}
	}
	return nil
}

// Eval computes a·x for the given constraint row.
func Eval(terms []Term, x []float64) float64 {
	var sum float64
	for _, t := range terms {
		sum += t.Coef * x[t.Var]
	}
	return sum
}

// FeasTol is the feasibility tolerance used by CheckFeasible and by the
// solver when classifying a point as feasible.
const FeasTol = 1e-6

// CheckFeasible reports whether x satisfies every constraint and bound of p
// within FeasTol (scaled by the magnitude of the row activity).
func (p *Problem) CheckFeasible(x []float64) bool {
	if len(x) < p.NumVars {
		return false
	}
	for j := 0; j < p.NumVars; j++ {
		if x[j] < -FeasTol || x[j] > p.upper(j)+FeasTol {
			return false
		}
	}
	for _, c := range p.Cons {
		lhs := Eval(c.Terms, x)
		tol := FeasTol * (1 + math.Abs(c.RHS))
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Objective computes c·x for the problem's cost vector.
func (p *Problem) Objective(x []float64) float64 {
	var sum float64
	for j := 0; j < len(p.Cost) && j < len(x); j++ {
		sum += p.Cost[j] * x[j]
	}
	return sum
}
