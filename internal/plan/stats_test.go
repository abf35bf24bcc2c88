package plan

import (
	"testing"

	"sqpr/internal/milp"
)

// TestStatsTimeoutsCountOnlyBudgetHits pins what Stats.Timeouts means: a
// solve that stops on its gap tolerance returns FeasibleMIP just like one
// cut short by its node budget, but only the latter is a timeout.
func TestStatsTimeoutsCountOnlyBudgetHits(t *testing.T) {
	// A knapsack whose root relaxation is fractional, warm-started with a
	// feasible point, so the search always holds an incumbent.
	solve := func(opts milp.Options) Result {
		m := milp.NewModel()
		values := []float64{9, 8, 7, 6, 5}
		weights := []float64{5, 5, 4, 4, 3}
		obj := make([]milp.Term, len(values))
		row := make([]milp.Term, len(values))
		for i := range values {
			v := m.AddBinary("x")
			obj[i] = milp.Term{Var: v, Coef: values[i]}
			row[i] = milp.Term{Var: v, Coef: weights[i]}
		}
		m.SetObjective(true, obj...)
		m.AddCons("cap", milp.LE, 10, row...)
		opts.Incumbent = []float64{1, 0, 0, 0, 0}
		sol := m.Solve(opts)
		if sol.Status != milp.FeasibleMIP {
			t.Fatalf("solve with %+v ended %v, want an unproven incumbent", opts, sol.Status)
		}
		return Result{Admitted: true, SolveStatus: sol.Status, Stalled: sol.Stalled, BudgetHit: sol.BudgetHit}
	}

	var gap Stats
	gap.Record(solve(milp.Options{AbsGapTol: 100}))
	if gap.Timeouts != 0 || gap.Stalls != 0 {
		t.Fatalf("gap-stopped solve recorded %d timeouts, %d stalls; want 0, 0", gap.Timeouts, gap.Stalls)
	}

	var budget Stats
	budget.Record(solve(milp.Options{MaxNodes: 1}))
	if budget.Timeouts != 1 || budget.Stalls != 0 {
		t.Fatalf("node-budget solve recorded %d timeouts, %d stalls; want 1, 0", budget.Timeouts, budget.Stalls)
	}

	// A budget hit before any incumbent was found is a timeout as well.
	var empty Stats
	empty.Record(Result{SolveStatus: milp.NoSolution, BudgetHit: true})
	if empty.Timeouts != 1 || empty.Stalls != 0 {
		t.Fatalf("budget hit with no incumbent recorded %d timeouts, %d stalls; want 1, 0", empty.Timeouts, empty.Stalls)
	}
}
