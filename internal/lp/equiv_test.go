package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Dense-vs-sparse equivalence suite.
//
// The sparse revised-simplex Solver and the dense reference DenseSolver
// implement the same public contract over the same problems; this suite
// drives both through identical randomized workloads and demands identical
// statuses and objectives (vertices may differ — both engines are free to
// return any optimal basis). End-to-end admission equivalence at the
// planner level is certified separately: the internal/core conformance
// goldens were recorded against the dense engine and still pass verbatim
// against the sparse one, so the admitted sets the planner derives from LP
// answers are unchanged.

const equivTol = 1e-6

// equivObjective evaluates the minimization objective at a solution point.
func equivObjective(p *Problem, x []float64) float64 {
	v := 0.0
	for j := 0; j < p.NumVars && j < len(x); j++ {
		v += p.Cost[j] * x[j]
	}
	return v
}

// checkAgree fails the test unless the two solutions agree in status and,
// when optimal, in objective value.
func checkAgree(t *testing.T, where string, p *Problem, ds Solution, ss Solution) {
	t.Helper()
	if ds.Status != ss.Status {
		t.Fatalf("%s: status dense=%v sparse=%v", where, ds.Status, ss.Status)
	}
	if ds.Status != Optimal {
		return
	}
	do := equivObjective(p, ds.X)
	so := equivObjective(p, ss.X)
	scale := 1 + math.Abs(do)
	if math.Abs(do-so) > equivTol*scale {
		t.Fatalf("%s: objective dense=%.12g sparse=%.12g", where, do, so)
	}
}

// TestDenseSparseColdEquivalence cross-checks cold solves over 50 seeded
// random problems, eager and lazy.
func TestDenseSparseColdEquivalence(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 50; trial++ {
			n := 3 + rng.Intn(8)
			p := randomBoundedLP(rng, n, 1+rng.Intn(6))
			d := NewDenseSolver()
			d.SetLazy(lazy)
			sp := NewSolver()
			sp.SetLazy(lazy)
			if err := d.Load(p); err != nil {
				t.Fatalf("dense load: %v", err)
			}
			if err := sp.Load(p); err != nil {
				t.Fatalf("sparse load: %v", err)
			}
			ds := d.ReSolve(Options{})
			ss := sp.ReSolve(Options{})
			checkAgree(t, tname("cold", lazy, trial), p, ds, ss)
		}
	}
}

// TestDenseSparseWarmFixEquivalence runs both engines through identical
// randomized Fix/Unfix warm re-solve sequences — the branch-and-bound
// probing pattern — cross-checking after every step.
func TestDenseSparseWarmFixEquivalence(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			n := 3 + rng.Intn(8)
			p := randomBoundedLP(rng, n, 1+rng.Intn(6))
			d := NewDenseSolver()
			d.SetLazy(lazy)
			sp := NewSolver()
			sp.SetLazy(lazy)
			if err := d.Load(p); err != nil {
				t.Fatalf("dense load: %v", err)
			}
			if err := sp.Load(p); err != nil {
				t.Fatalf("sparse load: %v", err)
			}
			checkAgree(t, tname("warm-root", lazy, trial), p,
				d.ReSolve(Options{}), sp.ReSolve(Options{}))

			fixed := map[int]bool{}
			for step := 0; step < 12; step++ {
				j := rng.Intn(n)
				var where string
				if _, is := fixed[j]; is && rng.Float64() < 0.5 {
					d.Unfix(j)
					sp.Unfix(j)
					delete(fixed, j)
					where = "unfix"
				} else {
					atUpper := rng.Float64() < 0.5
					d.Fix(j, atUpper)
					sp.Fix(j, atUpper)
					fixed[j] = atUpper
					where = "fix"
				}
				ds := d.ReSolve(Options{})
				ss := sp.ReSolve(Options{})
				checkAgree(t, tname(where, lazy, trial*100+step), p, ds, ss)
			}
		}
	}
}

// TestDenseSparseBasisRoundTripEquivalence exercises SaveBasis/RestoreBasis
// across intervening fix churn on both engines: after a restore plus warm
// re-solve under a fresh fix set, the engines must still agree.
func TestDenseSparseBasisRoundTripEquivalence(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 50; trial++ {
			n := 3 + rng.Intn(8)
			p := randomBoundedLP(rng, n, 1+rng.Intn(6))
			d := NewDenseSolver()
			d.SetLazy(lazy)
			sp := NewSolver()
			sp.SetLazy(lazy)
			if err := d.Load(p); err != nil {
				t.Fatalf("dense load: %v", err)
			}
			if err := sp.Load(p); err != nil {
				t.Fatalf("sparse load: %v", err)
			}
			checkAgree(t, tname("pre-save", lazy, trial), p,
				d.ReSolve(Options{}), sp.ReSolve(Options{}))
			d.SaveBasis()
			sp.SaveBasis()

			// Churn: fixes and re-solves that move both engines off the
			// saved basis.
			for step := 0; step < 4; step++ {
				j := rng.Intn(n)
				atUpper := rng.Float64() < 0.5
				d.Fix(j, atUpper)
				sp.Fix(j, atUpper)
				d.ReSolve(Options{})
				sp.ReSolve(Options{})
				d.Unfix(j)
				sp.Unfix(j)
			}

			if dok, sok := d.RestoreBasis(), sp.RestoreBasis(); dok != sok {
				t.Fatalf("restore: dense=%v sparse=%v", dok, sok)
			}
			j := rng.Intn(n)
			d.Fix(j, false)
			sp.Fix(j, false)
			checkAgree(t, tname("post-restore", lazy, trial), p,
				d.ReSolve(Options{}), sp.ReSolve(Options{}))
		}
	}
}

func tname(where string, lazy bool, trial int) string {
	if lazy {
		return where + "-lazy-" + itoa(trial)
	}
	return where + "-eager-" + itoa(trial)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
