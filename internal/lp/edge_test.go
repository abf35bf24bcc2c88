package lp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestDeadlineAborts(t *testing.T) {
	// A deadline in the past must abort immediately with IterLimit.
	rng := rand.New(rand.NewSource(5))
	n, m := 40, 40
	p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = -rng.Float64()
		p.Upper[j] = 1
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{j, rng.Float64()}
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: LE, RHS: 1 + rng.Float64()})
	}
	sol := Solve(p, Options{Deadline: time.Now().Add(-time.Second)})
	if sol.Status != IterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
}

// TestCancelledContextAborts: with no deadline, an already-cancelled
// Options.Ctx alone must stop a ReSolve with IterLimit.
func TestCancelledContextAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomBoundedLP(rng, 40, 40)
	s := NewSolver()
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sol := s.ReSolve(Options{Ctx: ctx}); sol.Status != IterLimit {
		t.Fatalf("status %v after %d iterations, want iteration-limit", sol.Status, sol.Iters)
	}
}

func TestAllVariablesAtUpperBound(t *testing.T) {
	// max Σx with generous constraints: everything should hit its bound
	// via bound flips, not pivots.
	n := 6
	p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = -1
		p.Upper[j] = float64(j + 1)
	}
	p.Cons = []Constraint{
		{Terms: []Term{{0, 1}}, Sense: LE, RHS: 100},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	for j := 0; j < n; j++ {
		if sol.X[j] != float64(j+1) {
			t.Fatalf("x[%d] = %v, want %v", j, sol.X[j], j+1)
		}
	}
}

func TestZeroUpperBoundVariable(t *testing.T) {
	// A variable with upper bound zero is effectively fixed to zero.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{-10, -1},
		Upper:   []float64{0, 4},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 3},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || sol.X[0] != 0 {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
	if sol.X[1] != 3 {
		t.Fatalf("x[1]=%v want 3", sol.X[1])
	}
}

func TestMixedSenseSystem(t *testing.T) {
	// min 2x+3y s.t. x+y >= 4, x-y <= 1, y <= 3 → x in [1,?]: best
	// y=3, x=1 → obj 11? check: x+y>=4 → x>=1; obj 2x+3y minimised by
	// trading y down: y=1.5, x=2.5 → 2·2.5+3·1.5=9.5 with x-y=1 ✓.
	p := &Problem{
		NumVars: 2,
		Cost:    []float64{2, 3},
		Upper:   []float64{100, 3},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 4},
			{Terms: []Term{{0, 1}, {1, -1}}, Sense: LE, RHS: 1},
		},
	}
	sol := Solve(p, Options{})
	if sol.Status != Optimal || !approx(sol.Objective, 9.5, 1e-6) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Objective, sol.X)
	}
}

func TestLargeDenseLPTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("large LP in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	n, m := 120, 80
	p := &Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.Float64()*2 - 1
		p.Upper[j] = 1
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				terms = append(terms, Term{j, rng.Float64()*2 - 0.5})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: LE, RHS: rng.Float64() * 5})
	}
	start := time.Now()
	sol := Solve(p, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !sol.Feasible {
		t.Fatal("optimal point not feasible")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("large LP took too long")
	}
}

// TestNonFiniteCostRejected: a NaN or infinite cost is refused by Load, in
// the pass that builds the column copy, and by Validate; before, Load took
// cost {NaN, 1} and the solve came back optimal and feasible at a NaN
// objective.
func TestNonFiniteCostRejected(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := &Problem{
			NumVars: 2,
			Cost:    []float64{c, 1},
			Upper:   []float64{1, 1},
			Cons:    []Constraint{{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 1}},
		}
		if err := NewSolver().Load(p); err == nil || !strings.Contains(err.Error(), "cost") {
			t.Errorf("cost %v: Load returned %v, want an error naming the cost", c, err)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("cost %v: Validate accepted it", c)
		}
		if sol := Solve(p, Options{}); sol.Status == Optimal {
			t.Errorf("cost %v: Solve returned optimal at %v", c, sol.Objective)
		}
	}
}

// TestLoadCSRRejectsMalformedRows: LoadCSR checks a program that did not
// come through Load in the passes that build its column copy, and names
// the offending row.
func TestLoadCSRRejectsMalformedRows(t *testing.T) {
	good := func() *CSR {
		return &CSR{
			NumVars: 2,
			Cost:    []float64{1, 1},
			Upper:   []float64{1, 1},
			Start:   []int32{0, 2, 2, 3},
			Var:     []int32{0, 1, 1},
			Coef:    []float64{1, 1, 1},
			Sense:   []Sense{GE, LE, LE},
			RHS:     []float64{1, 0, 1},
		}
	}
	if err := NewSolver().LoadCSR(good()); err != nil {
		t.Fatalf("LoadCSR rejected a well-formed program: %v", err)
	}
	for _, tc := range []struct {
		name  string
		spoil func(a *CSR)
		want  string
	}{
		{"variable out of range", func(a *CSR) { a.Var[2] = 2 }, "constraint 2 references variable 2"},
		{"negative variable", func(a *CSR) { a.Var[0] = -1 }, "constraint 0 references variable -1"},
		{"non-finite coefficient", func(a *CSR) { a.Coef[2] = math.Inf(-1) }, "constraint 2 has non-finite coefficient"},
		{"non-finite right-hand side", func(a *CSR) { a.RHS[1] = math.NaN() }, "constraint 1 has non-finite right-hand side"},
		{"infinite upper bound", func(a *CSR) { a.Upper[1] = math.Inf(1) }, "variable 1 has no finite non-negative upper bound"},
		{"short row starts", func(a *CSR) { a.Start = a.Start[:3] }, "malformed CSR"},
		{"starts past the terms", func(a *CSR) { a.Start[3] = 4 }, "malformed CSR"},
	} {
		a := good()
		tc.spoil(a)
		if err := NewSolver().LoadCSR(a); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadCSR returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
