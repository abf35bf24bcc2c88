package lp

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// testdata/s15_root.json is the root LP of one S15 admission: the model
// milp hands the solver for query 349 of the 15-host population at seed 9
// (the walk of TestPopulationWalksDoNotStall in the root package), 2,337
// variables over 4,313 rows, loaded lazily as milp loads it. It was written
// by a one-off hook in milp's worker that marshalled the compiled base
// problem on that call, with each row's terms split into parallel variable
// and coefficient lists to halve the file. This is the root LP that once
// ran 1.14 M dual iterations into its deadline.
const s15RootFile = "testdata/s15_root.json"

// loadS15Root reads the fixture into a Problem.
func loadS15Root(tb testing.TB) *Problem {
	tb.Helper()
	b, err := os.ReadFile(s15RootFile)
	if err != nil {
		tb.Fatal(err)
	}
	var f struct {
		NumVars int       `json:"vars"`
		Cost    []float64 `json:"cost"`
		Upper   []float64 `json:"upper"`
		Rows    []struct {
			Sense Sense     `json:"s"`
			RHS   float64   `json:"b"`
			Vars  []int     `json:"v"`
			Coefs []float64 `json:"c"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		tb.Fatal(err)
	}
	p := &Problem{NumVars: f.NumVars, Cost: f.Cost, Upper: f.Upper}
	for _, r := range f.Rows {
		c := Constraint{Sense: r.Sense, RHS: r.RHS, Terms: make([]Term, len(r.Vars))}
		for k, j := range r.Vars {
			c.Terms[k] = Term{Var: j, Coef: r.Coefs[k]}
		}
		p.Cons = append(p.Cons, c)
	}
	return p
}

// s15Pins are eight binaries that are fractional at the fixture's root
// optimum, each with the bound it rounds to (value ≥ 0.5 rounds up).
var s15Pins = []struct {
	j    int
	atUp bool
}{{8, false}, {19, true}, {43, false}, {50, true}, {239, true}, {296, true}, {331, false}, {985, true}}

// s15Sequence runs one cold solve of the fixture and then the fixed
// branch-and-bound-shaped sequence after it, calling step with each
// solution: a plunge that pins s15Pins one by one, re-solving after each;
// the last four pins released again in reverse, re-solving after each; and
// from the restored root basis each pin the other way round, one at a time.
func s15Sequence(s *Solver, p *Problem, step func(Solution)) {
	if err := s.Load(p); err != nil {
		panic(err)
	}
	step(s.ReSolve(Options{}))
	s.SaveBasis()
	for _, pin := range s15Pins {
		s.Fix(pin.j, pin.atUp)
		step(s.ReSolve(Options{}))
	}
	for k := len(s15Pins) - 1; k >= len(s15Pins)/2; k-- {
		s.Unfix(s15Pins[k].j)
		step(s.ReSolve(Options{}))
	}
	for _, pin := range s15Pins {
		s.RestoreBasis()
		s.Fix(pin.j, !pin.atUp)
		step(s.ReSolve(Options{}))
	}
}

// TestS15RootFixture solves the fixture cold and runs the fixed sequence
// after it: every solve must end at the status and objective recorded when
// the fixture was made, and the cold root within an iteration bound. The
// cold root took 1,386 dual iterations then; the bound leaves room for
// pivoting to take other ties, not for a costlier method.
func TestS15RootFixture(t *testing.T) {
	const rootIters = 1525
	want := []struct {
		st  Status
		obj float64
	}{
		{Optimal, -599.27601514572234},
		{Optimal, -599.27558507712092},
		{Optimal, -599.27523875672046},
		{Optimal, -599.27523875672046},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Infeasible, 0},
		{Optimal, -599.27601514572234},
		{Optimal, -599.27601514572234},
		{Optimal, -599.27601514572234},
		{Optimal, -599.27601514579351},
		{Optimal, -599.27601514572234},
		{Optimal, -599.27578211165826},
		{Optimal, -599.27578211165837},
		{Optimal, -599.27601514572234},
	}
	p := loadS15Root(t)
	s := NewSolver()
	s.SetLazy(true)
	k := 0
	s15Sequence(s, p, func(sol Solution) {
		if k == 0 {
			t.Logf("cold root: %v, objective %.17g, %d iterations", sol.Status, sol.Objective, sol.Iters)
			if sol.Iters > rootIters {
				t.Errorf("cold root took %d iterations, bound %d", sol.Iters, rootIters)
			}
		}
		t.Logf("step %d: %v %.17g (%d iterations)", k, sol.Status, sol.Objective, sol.Iters)
		if k < len(want) {
			w := want[k]
			if sol.Status != w.st || (w.st == Optimal && math.Abs(sol.Objective-w.obj) > 1e-6*(1+math.Abs(w.obj))) {
				t.Errorf("step %d: %v at objective %.12g, want %v at %.12g", k, sol.Status, sol.Objective, w.st, w.obj)
			}
			if w.st == Optimal && !sol.Feasible {
				t.Errorf("step %d: optimal point fails the feasibility check", k)
			}
		}
		k++
	})
	if k != len(want) {
		t.Errorf("%d solves, want %d", k, len(want))
	}
}

// BenchmarkReSolveS15Root times the fixture's cold solve plus the fixed
// Fix/Unfix/RestoreBasis sequence after it (s15Sequence): a deterministic
// measure of the LP kernels on an S15-sized root that needs no benchmark
// daemon. One warm-up run sizes every arena, so the timed runs allocate
// nothing.
func BenchmarkReSolveS15Root(b *testing.B) {
	p := loadS15Root(b)
	s := NewSolver()
	s.SetLazy(true)
	iters := 0
	s15Sequence(s, p, func(Solution) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s15Sequence(s, p, func(sol Solution) { iters += sol.Iters })
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}
