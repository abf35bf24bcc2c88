package milp

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sqpr/internal/invariant"
)

func TestKnapsack(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c<=2 (binaries) → a+b = 16.
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	c := m.AddBinary("c")
	m.SetObjective(true, Term{a, 10}, Term{b, 6}, Term{c, 4})
	m.AddCons("cap", LE, 2, Term{a, 1}, Term{b, 1}, Term{c, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Objective-16) > 1e-6 {
		t.Fatalf("objective %v want 16 (x=%v)", res.Objective, res.X)
	}
}

func TestWeightedKnapsack(t *testing.T) {
	// Classic: weights 3,4,5 values 4,5,6 capacity 7 → items 1+2 value 9.
	m := NewModel()
	v := []Var{m.AddBinary("i0"), m.AddBinary("i1"), m.AddBinary("i2")}
	m.SetObjective(true, Term{v[0], 4}, Term{v[1], 5}, Term{v[2], 6})
	m.AddCons("w", LE, 7, Term{v[0], 3}, Term{v[1], 4}, Term{v[2], 5})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-9) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Objective, res.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2z + y with z binary, 0<=y<=10, y <= 3 + 4z.
	// z=1 → y=7? y<=3+4=7, y<=10 → obj 2+7=9.
	m := NewModel()
	z := m.AddBinary("z")
	y := m.AddContinuous(0, 10, "y")
	m.SetObjective(true, Term{z, 2}, Term{y, 1})
	m.AddCons("link", LE, 3, Term{y, 1}, Term{z, -4})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-9) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Objective, res.X)
	}
}

// TestUnboxedVariableIsAnError: every LP column must be boxed, so Solve
// refuses a variable without a finite upper bound, names it, and runs no
// search; the same model with the variable boxed solves.
func TestUnboxedVariableIsAnError(t *testing.T) {
	build := func(hi float64) *Model {
		m := NewModel()
		z := m.AddBinary("z")
		y := m.AddContinuous(0, hi, "spill")
		m.SetObjective(true, Term{z, 2}, Term{y, 1})
		m.AddCons("link", LE, 3, Term{y, 1}, Term{z, -4})
		return m
	}
	res := build(math.Inf(1)).Solve(Options{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), `"spill"`) {
		t.Fatalf("err %v, want one naming \"spill\"", res.Err)
	}
	if res.Status != NoSolution || res.X != nil || res.Nodes != 0 {
		t.Fatalf("status %v, x %v, %d nodes after the error", res.Status, res.X, res.Nodes)
	}
	if res := build(10).Solve(Options{}); res.Err != nil || res.Status != OptimalMIP || math.Abs(res.Objective-9) > 1e-6 {
		t.Fatalf("boxed model: err %v, status %v, objective %v", res.Err, res.Status, res.Objective)
	}
}

func TestInfeasibleModel(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.AddCons("lo", GE, 3, Term{a, 1}, Term{b, 1}) // max attainable is 2
	res := m.Solve(Options{})
	if res.Status != InfeasibleMIP {
		t.Fatalf("status %v want infeasible", res.Status)
	}
}

func TestFixedVariableSubstitution(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.Fix(a, 1)
	m.SetObjective(true, Term{a, 5}, Term{b, 3})
	m.AddCons("cap", LE, 1, Term{a, 1}, Term{b, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Objective-5) > 1e-6 || res.X[a] != 1 || res.X[b] != 0 {
		t.Fatalf("obj=%v x=%v", res.Objective, res.X)
	}
}

func TestFixedInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.Fix(a, 0)
	m.AddCons("need", GE, 1, Term{a, 1})
	res := m.Solve(Options{})
	if res.Status != InfeasibleMIP {
		t.Fatalf("status %v want infeasible", res.Status)
	}
}

func TestWarmStartIncumbentAccepted(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.SetObjective(true, Term{a, 1}, Term{b, 1})
	m.AddCons("cap", LE, 1, Term{a, 1}, Term{b, 1})
	// Give a feasible warm start and an immediate node limit of 0 so the
	// search cannot run; the incumbent must still be returned.
	res := m.Solve(Options{Incumbent: []float64{1, 0}, MaxNodes: 1, Deadline: time.Now().Add(-time.Second)})
	if res.Status == NoSolution || res.X == nil {
		t.Fatalf("warm start lost: %v", res.Status)
	}
	if math.Abs(res.Objective-1) > 1e-9 {
		t.Fatalf("objective %v", res.Objective)
	}
}

func TestWarmStartInfeasibleIgnored(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective(true, Term{a, 1})
	m.AddCons("cap", LE, 0, Term{a, 1})
	res := m.Solve(Options{Incumbent: []float64{1}}) // violates cap
	if res.Status != OptimalMIP || res.Objective != 0 {
		t.Fatalf("status=%v obj=%v", res.Status, res.Objective)
	}
}

func TestDeadlineReturnsBestFound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewModel()
	n := 30
	vars := make([]Var, n)
	terms := make([]Term, n)
	weights := make([]Term, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary("v")
		terms[i] = Term{vars[i], 1 + rng.Float64()*9}
		weights[i] = Term{vars[i], 1 + rng.Float64()*9}
	}
	m.SetObjective(true, terms...)
	m.AddCons("w", LE, 25, weights...)
	res := m.Solve(Options{Deadline: time.Now().Add(50 * time.Millisecond)})
	if res.X == nil {
		t.Fatalf("expected some incumbent, got %v", res.Status)
	}
	if res.Objective > res.Bound+1e-6 {
		t.Fatalf("incumbent %v exceeds bound %v", res.Objective, res.Bound)
	}
}

func TestBoundDirectionMaximise(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective(true, Term{a, 7})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-7) > 1e-9 {
		t.Fatalf("obj=%v", res.Objective)
	}
	if res.Bound < res.Objective-1e-6 {
		t.Fatalf("bound %v below objective %v for maximisation", res.Bound, res.Objective)
	}
}

func TestBoundDirectionMinimise(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.SetObjective(false, Term{a, 2}, Term{b, 3})
	m.AddCons("one", GE, 1, Term{a, 1}, Term{b, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-2) > 1e-6 {
		t.Fatalf("status=%v obj=%v", res.Status, res.Objective)
	}
	if res.Bound > res.Objective+1e-6 {
		t.Fatalf("bound %v above objective %v for minimisation", res.Bound, res.Objective)
	}
}

// TestRandomKnapsacksAgainstDP cross-checks the B&B against an exact dynamic
// program on random 0/1 knapsacks with integer data.
func TestRandomKnapsacksAgainstDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(8)
		cap := 10 + rng.Intn(20)
		w := make([]int, n)
		v := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(10)
			v[i] = 1 + rng.Intn(15)
		}
		want := knapsackDP(w, v, cap)

		m := NewModel()
		terms := make([]Term, n)
		wts := make([]Term, n)
		for i := 0; i < n; i++ {
			x := m.AddBinary("x")
			terms[i] = Term{x, float64(v[i])}
			wts[i] = Term{x, float64(w[i])}
		}
		m.SetObjective(true, terms...)
		m.AddCons("cap", LE, float64(cap), wts...)
		res := m.Solve(Options{MaxNodes: 100000})
		if res.Status != OptimalMIP {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		if math.Abs(res.Objective-float64(want)) > 1e-6 {
			t.Fatalf("trial %d: got %v want %d", trial, res.Objective, want)
		}
	}
}

func knapsackDP(w, v []int, cap int) int {
	best := make([]int, cap+1)
	for i := range w {
		for c := cap; c >= w[i]; c-- {
			if cand := best[c-w[i]] + v[i]; cand > best[c] {
				best[c] = cand
			}
		}
	}
	return best[cap]
}

// TestSetCover exercises GE rows with binaries (minimisation).
func TestSetCover(t *testing.T) {
	// Universe {1,2,3}; sets A={1,2} cost 3, B={2,3} cost 3, C={1,2,3} cost 5.
	// Optimum: C alone (5) vs A+B (6) → 5.
	m := NewModel()
	a := m.AddBinary("A")
	b := m.AddBinary("B")
	c := m.AddBinary("C")
	m.SetObjective(false, Term{a, 3}, Term{b, 3}, Term{c, 5})
	m.AddCons("e1", GE, 1, Term{a, 1}, Term{c, 1})
	m.AddCons("e2", GE, 1, Term{a, 1}, Term{b, 1}, Term{c, 1})
	m.AddCons("e3", GE, 1, Term{b, 1}, Term{c, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Objective, res.X)
	}
}

func TestEqualityWithBinaries(t *testing.T) {
	// Exactly-one constraint.
	m := NewModel()
	vars := []Var{m.AddBinary("a"), m.AddBinary("b"), m.AddBinary("c")}
	m.SetObjective(true, Term{vars[0], 1}, Term{vars[1], 5}, Term{vars[2], 3})
	m.AddCons("one", EQ, 1, Term{vars[0], 1}, Term{vars[1], 1}, Term{vars[2], 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", res.Status, res.Objective, res.X)
	}
	if math.Round(res.X[vars[1]]) != 1 {
		t.Fatalf("wrong selection: %v", res.X)
	}
}

func TestBigMIndicator(t *testing.T) {
	// The acyclicity constraints in SQPR use big-M rows: p_h >= p_m + 1 - M(1-x).
	// Verify a tiny version: x=1 forces p0 >= p1+1.
	const M = 10
	m := NewModel()
	x := m.AddBinary("x")
	p0 := m.AddContinuous(0, M, "p0")
	p1 := m.AddContinuous(0, M, "p1")
	m.Fix(x, 1)
	m.AddCons("acyc", GE, 1-M, Term{p0, 1}, Term{p1, -1}, Term{x, -M})
	m.SetObjective(false, Term{p0, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP {
		t.Fatalf("status %v", res.Status)
	}
	if res.X[p0] < res.X[p1]+1-1e-6 {
		t.Fatalf("indicator not enforced: p0=%v p1=%v", res.X[p0], res.X[p1])
	}
}

func TestAccumulatedTerms(t *testing.T) {
	// Duplicate terms on the same variable must accumulate.
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective(true, Term{a, 1}, Term{a, 1}) // 2a
	m.AddCons("cap", LE, 3, Term{a, 2}, Term{a, 1})
	res := m.Solve(Options{})
	if res.Status != OptimalMIP || math.Abs(res.Objective-2) > 1e-9 {
		t.Fatalf("obj=%v", res.Objective)
	}
}

// randomKnapsackModel builds a knapsack-with-conflicts MILP whose search
// tree is non-trivial.
func randomKnapsackModel(rng *rand.Rand, n int) *Model {
	m := NewModel()
	fillKnapsackModel(m, rng, n)
	return m
}

// fillKnapsackModel resets m and rebuilds it as randomKnapsackModel's
// knapsack.
func fillKnapsackModel(m *Model, rng *rand.Rand, n int) {
	m.Reset()
	vars := make([]Var, n)
	terms := make([]Term, n)
	weights := make([]Term, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary("x")
		terms[i] = Term{vars[i], 1 + rng.Float64()*14}
		weights[i] = Term{vars[i], 1 + rng.Float64()*9}
	}
	m.SetObjective(true, terms...)
	m.AddCons("cap", LE, float64(2*n), weights...)
	for i := 0; i+1 < n; i += 3 {
		m.AddCons("pair", LE, 1, Term{vars[i], 1}, Term{vars[i+1], 1})
	}
}

// TestSolveAllocationsPerSolveBounded: on a 40-binary knapsack with conflicts
// (a search of about 500 nodes), a warm Solve allocates a handful of times in
// all, not per node: the Model's search keeps its LP arenas and node scratch
// across calls, and the node re-solves allocate nothing.
func TestSolveAllocationsPerSolveBounded(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checked builds allocate scratch in their invariant checks")
	}
	m := randomKnapsackModel(rand.New(rand.NewSource(9)), 40)
	var res Result
	solve := func() { res = m.Solve(Options{MaxNodes: 100000}) }
	solve() // the first solve compiles the model and sizes the search
	if allocs := testing.AllocsPerRun(5, solve); allocs > 4 {
		t.Fatalf("warm Solve allocated %v times over %d nodes, want <= 4", allocs, res.Nodes)
	}
	if res.Status != OptimalMIP {
		t.Fatalf("status %v after %d nodes, want optimal", res.Status, res.Nodes)
	}
}

// TestSerialDeterministic builds the identical model twice and expects bit-identical node counts and objectives.
func TestSerialDeterministic(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		a := randomKnapsackModel(rand.New(rand.NewSource(int64(trial))), 14)
		b := randomKnapsackModel(rand.New(rand.NewSource(int64(trial))), 14)
		ra := a.Solve(Options{MaxNodes: 200000})
		rb := b.Solve(Options{MaxNodes: 200000})
		if ra.Status != rb.Status || ra.Nodes != rb.Nodes || ra.LPIters != rb.LPIters || ra.Objective != rb.Objective {
			t.Fatalf("trial %d: nondeterministic serial solve: (%v,%d,%d,%v) vs (%v,%d,%d,%v)",
				trial, ra.Status, ra.Nodes, ra.LPIters, ra.Objective, rb.Status, rb.Nodes, rb.LPIters, rb.Objective)
		}
	}
}

// TestConcurrentIndependentSolves exercises many Solve calls on independent
// models from independent goroutines; run with -race to verify that the
// models share no solver state.
func TestConcurrentIndependentSolves(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 5; k++ {
				m := randomKnapsackModel(rng, 10)
				res := m.Solve(Options{MaxNodes: 100000})
				if res.Status != OptimalMIP {
					errs <- res.Status.String()
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent solve failed: %v", e)
	}
}

// TestSolveReusesSearchState: the search a Model keeps between Solves (its
// LP solver, recycled nodes and sized buffers) leaves no trace in the next
// run. Each Solve on one long-lived Model — the same model again, then a
// smaller one after Reset, under every option that changes the search —
// must give bit for bit what a fresh Model gives.
func TestSolveReusesSearchState(t *testing.T) {
	variants := []struct {
		name string
		opts func(n int) Options
	}{
		{"plain", func(int) Options { return Options{MaxNodes: 100000} }},
		{"warm", func(n int) Options { return Options{MaxNodes: 100000, Incumbent: make([]float64, n)} }},
		{"ablated", func(int) Options { return Options{MaxNodes: 100000, DisableTreeReduction: true} }},
	}
	steps := []struct {
		seed    int64
		n       int
		rebuild bool
	}{{9, 40, true}, {9, 40, false}, {4, 16, true}}
	reused := NewModel()
	for _, v := range variants {
		for i, st := range steps {
			if st.rebuild {
				fillKnapsackModel(reused, rand.New(rand.NewSource(st.seed)), st.n)
			}
			got := reused.Solve(v.opts(st.n))
			want := randomKnapsackModel(rand.New(rand.NewSource(st.seed)), st.n).Solve(v.opts(st.n))
			if want.Nodes < 2 || want.X == nil {
				t.Fatalf("%s step %d: fresh solve took %d nodes with incumbent %v, want a search", v.name, i, want.Nodes, want.X != nil)
			}
			if got.Status != want.Status || got.Nodes != want.Nodes || got.LPIters != want.LPIters ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Factor != want.Factor {
				t.Fatalf("%s step %d: reused Model gave (%v, %d nodes, %d iters, %v, %+v), fresh (%v, %d, %d, %v, %+v)",
					v.name, i, got.Status, got.Nodes, got.LPIters, got.Objective, got.Factor,
					want.Status, want.Nodes, want.LPIters, want.Objective, want.Factor)
			}
			if len(got.X) != len(want.X) {
				t.Fatalf("%s step %d: reused X has %d values, fresh %d", v.name, i, len(got.X), len(want.X))
			}
			for j := range want.X {
				if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
					t.Fatalf("%s step %d: X[%d] reused %v, fresh %v", v.name, i, j, got.X[j], want.X[j])
				}
			}
		}
	}
}

// TestStrayVariableIsAnError: a row term on a variable the model lacks
// fails Solve with an error naming the row instead of panicking in
// compile, and Reset clears it.
func TestStrayVariableIsAnError(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective(true, Term{a, 1})
	m.AddCons("cap", LE, 1, Term{a, 1})
	m.AddCons("link", LE, 1, Term{a, 1}, Term{Var(7), 1})
	res := m.Solve(Options{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), `"link"`) || !strings.Contains(res.Err.Error(), "7") {
		t.Fatalf("err %v, want one naming row \"link\" and variable 7", res.Err)
	}
	if res.Status != NoSolution || res.X != nil || res.Nodes != 0 {
		t.Fatalf("status %v, x %v, %d nodes after the error", res.Status, res.X, res.Nodes)
	}
	m.Reset()
	a = m.AddBinary("a")
	m.SetObjective(true, Term{a, 1})
	m.AddCons("cap", LE, 1, Term{a, 1})
	if res := m.Solve(Options{}); res.Err != nil || res.Status != OptimalMIP || res.Objective != 1 {
		t.Fatalf("after Reset: err %v, status %v, objective %v", res.Err, res.Status, res.Objective)
	}
}
