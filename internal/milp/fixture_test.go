package milp

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"sqpr/internal/lp"
)

// testdata/s15_model.json is one rejection model of the 15-host
// fill_to_saturation benchmark workload at seed 1: the model core's
// builder handed Solve for the third rejected submission, 1,486 variables
// over 2,644 rows and 10,685 nonzeros. It was written by a one-off hook
// after the solve, with the variables as parallel lists and each row's
// terms split into variable and coefficient lists.
const s15ModelFile = "testdata/s15_model.json"

// loadS15Model reads the fixture into a model, recording its rows for
// referenceCompile.
func loadS15Model(tb testing.TB) *refModel {
	tb.Helper()
	b, err := os.ReadFile(s15ModelFile)
	if err != nil {
		tb.Fatal(err)
	}
	var f struct {
		Maximize bool      `json:"maximize"`
		Lo       []float64 `json:"lo"`
		Hi       []float64 `json:"hi"`
		Binary   []bool    `json:"binary"`
		Prio     []int8    `json:"prio"`
		Obj      []float64 `json:"obj"`
		Rows     []struct {
			Sense Sense     `json:"s"`
			RHS   float64   `json:"b"`
			Vars  []Var     `json:"v"`
			Coefs []float64 `json:"c"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		tb.Fatal(err)
	}
	r := &refModel{m: NewModel()}
	obj := make([]Term, len(f.Lo))
	for i := range f.Lo {
		typ := Continuous
		if f.Binary[i] {
			typ = Binary
		}
		v := r.m.AddVar(f.Lo[i], f.Hi[i], typ, "v")
		r.m.SetBranchPriority(v, f.Prio[i])
		obj[i] = Term{v, f.Obj[i]}
	}
	r.m.SetObjective(f.Maximize, obj...)
	for _, row := range f.Rows {
		terms := make([]Term, len(row.Vars))
		for k, v := range row.Vars {
			terms[k] = Term{v, row.Coefs[k]}
		}
		r.addCons("row", row.Sense, row.RHS, terms...)
	}
	return r
}

// TestS15ModelFixture pins what compile makes of the recorded S15 model:
// the LP's columns, rows and nonzeros, presolve's counts, and the root
// LP's objective. TestCompileMatchesReference checks the same model
// against the reference compile.
func TestS15ModelFixture(t *testing.T) {
	r := loadS15Model(t)
	if nv, nr, nnz := r.m.NumVars(), len(r.m.rowSense), len(r.m.rowVar); nv != 1486 || nr != 2644 || nnz != 10685 {
		t.Fatalf("model has %d variables, %d rows and %d nonzeros, want 1486, 2644, 10685", nv, nr, nnz)
	}
	c, err := r.m.compile(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := &c.lp
	sizes := [3]int{a.NumVars, len(a.Sense), len(a.Var)}
	counts := [3]int{c.presolveFixed, c.presolveTightened, c.presolveDropped}
	t.Logf("LP %v (columns, rows, nonzeros); presolve %v (fixed, tightened, dropped)", sizes, counts)
	if want := [3]int{1349, 2379, 9385}; sizes != want {
		t.Errorf("LP (columns, rows, nonzeros) %v, want %v", sizes, want)
	}
	if want := [3]int{137, 20, 265}; counts != want {
		t.Errorf("presolve (fixed, tightened, dropped) %v, want %v", counts, want)
	}
	s := lp.NewSolver()
	s.SetLazy(true)
	if err := s.LoadCSR(a); err != nil {
		t.Fatal(err)
	}
	sol := s.ReSolve(lp.Options{})
	root := c.modelSpace(sol.Objective)
	t.Logf("root LP: %v, model-space bound %.17g, %d iterations", sol.Status, root, sol.Iters)
	const wantRoot = 499.43601323325021
	if sol.Status != lp.Optimal || math.Abs(root-wantRoot) > 1e-9*(1+math.Abs(wantRoot)) {
		t.Errorf("root LP %v at %.17g, want optimal at %.17g", sol.Status, root, wantRoot)
	}
}

// BenchmarkCompileLoadS15 times compile (presolve included) and the LP
// load of the recorded S15 model, the per-solve model work that runs
// before the first simplex pivot, with no search.
func BenchmarkCompileLoadS15(b *testing.B) {
	r := loadS15Model(b)
	s := lp.NewSolver()
	s.SetLazy(true)
	run := func() {
		c, err := r.m.compile(true, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.LoadCSR(&c.lp); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
