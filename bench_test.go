// Benchmarks regenerating every figure of the SQPR paper's evaluation
// (§V), plus the hierarchical planner, the adaptive re-planning loop and an
// LP micro-benchmark.
//
// Each benchmark runs the figure's experiment at a compact scale and
// reports the headline quantity (satisfied queries, average planning time)
// via b.ReportMetric, so `go test -bench=. -benchmem` reproduces the
// paper's series alongside allocation profiles. cmd/sqpr-sim and
// cmd/sqpr-cluster run the same experiments at full scale; `go run ./bench`
// is the end-to-end benchmark of the serving stack.
package sqpr_test

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/hier"
	"sqpr/internal/lp"
	"sqpr/internal/sim"
)

// benchScale is the compact experiment scale used by benchmarks.
func benchScale() sim.Scale {
	sc := sim.DefaultScale()
	sc.Hosts = 8
	sc.BaseStreams = 40
	sc.Queries = 30
	sc.Timeout = 60 * time.Millisecond
	sc.MaxCandHost = 6
	return sc
}

// TestCompactWorkloadAdmissions pins the planner's admission decisions on
// the compact §V workload the benchmarks share: one query at a time in
// workload order, it admits 27 of the 30. The per-call budget is a minute,
// far beyond any solve here, so only node counts stop a search and the
// count cannot move with machine speed (it is the same at 60 ms).
func TestCompactWorkloadAdmissions(t *testing.T) {
	sc := benchScale()
	env := sim.BuildEnv(sc)
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = time.Minute
	cfg.MaxCandidateHosts = sc.MaxCandHost
	p := core.NewPlanner(env.Sys, cfg)
	for _, q := range env.Queries {
		if _, err := p.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got, st := p.AdmittedCount(), p.Stats(); got != 27 || st.Timeouts != 0 {
		t.Fatalf("admitted %d of %d with %d timeouts, want 27 and 0 (stats %+v)", got, len(env.Queries), st.Timeouts, st)
	}
}

// --- Fig. 4: planning efficiency -------------------------------------------

func BenchmarkFig4aPlanningEfficiency(b *testing.B) {
	sc := benchScale()
	var last sim.Fig4aResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig4a(sc)
	}
	for _, c := range last.Curves {
		if len(c.Satisfied) > 0 {
			b.ReportMetric(float64(c.Satisfied[len(c.Satisfied)-1]), c.Label+"-satisfied")
		}
	}
}

func BenchmarkFig4bBatching(b *testing.B) {
	sc := benchScale()
	sc.Queries = 20
	var last sim.Fig4aResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig4b(sc, []int{2, 4})
	}
	for _, c := range last.Curves {
		if len(c.Satisfied) > 0 {
			b.ReportMetric(float64(c.Satisfied[len(c.Satisfied)-1]), c.Label+"-satisfied")
		}
	}
}

func BenchmarkFig4cOverlap(b *testing.B) {
	sc := benchScale()
	sc.Queries = 20
	var last sim.Fig4cResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig4c(sc, []float64{0, 1}, []int{20, 40})
	}
	for i, bc := range last.BaseStreams {
		for j, z := range last.Zipfs {
			b.ReportMetric(float64(last.Satisfied[i][j]),
				"satisfied-b"+itoa(bc)+"-z"+ftoa(z))
		}
	}
}

// --- Fig. 5: scalability ----------------------------------------------------

func BenchmarkFig5aHosts(b *testing.B) {
	sc := benchScale()
	sc.Queries = 20
	var last sim.ScalabilityResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig5a(sc, []int{4, 8})
	}
	reportScal(b, last)
}

func BenchmarkFig5bResources(b *testing.B) {
	sc := benchScale()
	sc.Queries = 20
	var last sim.ScalabilityResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig5b(sc, []int{1, 4})
	}
	reportScal(b, last)
}

func BenchmarkFig5cComplexity(b *testing.B) {
	sc := benchScale()
	sc.Queries = 16
	var last sim.ScalabilityResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig5c(sc, []int{2, 4})
	}
	reportScal(b, last)
}

func reportScal(b *testing.B, r sim.ScalabilityResult) {
	b.Helper()
	for i, x := range r.X {
		b.ReportMetric(float64(r.SQPR[i]), "sqpr-"+r.XLabel+"-"+itoa(x))
		b.ReportMetric(float64(r.Bound[i]), "bound-"+r.XLabel+"-"+itoa(x))
	}
}

// --- Fig. 6: planning-time overhead ----------------------------------------

func BenchmarkFig6aPlanTimeHosts(b *testing.B) {
	sc := benchScale()
	sc.Queries = 16
	var last sim.TimingResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig6a(sc, []int{4, 8})
	}
	for i, x := range last.X {
		b.ReportMetric(float64(last.AvgTime[i].Microseconds()), "us-per-plan-hosts-"+itoa(x))
	}
}

func BenchmarkFig6bPlanTimeArity(b *testing.B) {
	sc := benchScale()
	sc.Queries = 16
	var last sim.TimingResult
	for i := 0; i < b.N; i++ {
		last = sim.Fig6b(sc, []int{2, 4})
	}
	for i, x := range last.X {
		b.ReportMetric(float64(last.AvgTime[i].Microseconds()), "us-per-plan-arity-"+itoa(x))
	}
}

// --- Fig. 7: cluster deployment ---------------------------------------------

func fig7Scale() sim.DeployScale {
	ds := sim.DefaultDeployScale()
	ds.Hosts = 8
	ds.BaseStreams = 40
	ds.WaveSize = 10
	ds.Waves = 2
	ds.Timeout = 60 * time.Millisecond
	return ds
}

func BenchmarkFig7aDeployment(b *testing.B) {
	var last sim.Fig7Result
	for i := 0; i < b.N; i++ {
		last = sim.Fig7(context.Background(), fig7Scale())
	}
	for i, in := range last.Inputs {
		b.ReportMetric(float64(last.SQPR[i]), "sqpr-at-"+itoa(in))
		b.ReportMetric(float64(last.SODA[i]), "soda-at-"+itoa(in))
	}
}

func BenchmarkFig7bCPUCDF(b *testing.B) {
	var last sim.Fig7Result
	for i := 0; i < b.N; i++ {
		last = sim.Fig7(context.Background(), fig7Scale())
	}
	if last.CPULowSQPR != nil {
		b.ReportMetric(last.CPULowSQPR.Quantile(0.5), "sqpr-low-p50-cpu")
	}
	if last.CPULowSODA != nil {
		b.ReportMetric(last.CPULowSODA.Quantile(0.5), "soda-low-p50-cpu")
	}
}

func BenchmarkFig7cNetCDF(b *testing.B) {
	var last sim.Fig7Result
	for i := 0; i < b.N; i++ {
		last = sim.Fig7(context.Background(), fig7Scale())
	}
	if last.NetLowSQPR != nil {
		b.ReportMetric(last.NetLowSQPR.Quantile(0.5), "sqpr-low-p50-net")
	}
	if last.NetLowSODA != nil {
		b.ReportMetric(last.NetLowSODA.Quantile(0.5), "soda-low-p50-net")
	}
}

// --- Extensions (§VII future work implemented here) --------------------------

// BenchmarkHierarchicalVsFlat compares the site-decomposed planner against
// flat SQPR on the same workload: admissions and per-plan time.
func BenchmarkHierarchicalVsFlat(b *testing.B) {
	var flatN, hierN int
	var flatT, hierT time.Duration
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Hosts = 12

		envF := sim.BuildEnv(sc)
		cfgF := core.DefaultConfig()
		cfgF.SolveTimeout = sc.Timeout
		cfgF.MaxCandidateHosts = sc.Hosts // flat: whole cluster in scope
		fp := core.NewPlanner(envF.Sys, cfgF)
		ctx := context.Background()
		start := time.Now()
		for _, q := range envF.Queries {
			if _, err := fp.Submit(ctx, q); err != nil {
				b.Fatalf("flat Submit(%d): %v", q, err)
			}
		}
		flatT = time.Since(start) / time.Duration(len(envF.Queries))
		flatN = fp.AdmittedCount()

		envH := sim.BuildEnv(sc)
		cfgH := core.DefaultConfig()
		cfgH.SolveTimeout = sc.Timeout
		cfgH.MaxCandidateHosts = sc.Hosts
		hp := hier.New(envH.Sys, cfgH, 3)
		start = time.Now()
		for _, q := range envH.Queries {
			if _, err := hp.Submit(ctx, q); err != nil {
				b.Fatalf("hier Submit(%d): %v", q, err)
			}
		}
		hierT = time.Since(start) / time.Duration(len(envH.Queries))
		hierN = hp.AdmittedCount()
	}
	b.ReportMetric(float64(flatN), "flat-admitted")
	b.ReportMetric(float64(hierN), "hier-admitted")
	b.ReportMetric(float64(flatT.Microseconds()), "flat-us-per-plan")
	b.ReportMetric(float64(hierT.Microseconds()), "hier-us-per-plan")
}

// BenchmarkAdaptiveReplanning measures the §IV-B surge-and-replan loop.
func BenchmarkAdaptiveReplanning(b *testing.B) {
	var last sim.AdaptiveResult
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Queries = 20
		res, err := sim.Adaptive(sc, 2.0, 3)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.AdmittedBefore), "admitted-before")
	b.ReportMetric(float64(last.Drifted), "drifted")
	b.ReportMetric(float64(last.AdmittedAfter), "admitted-after")
}

// --- tiny fmt helpers (avoid fmt in hot bench labels) -----------------------

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-int64(v)) // two's-complement safe, including MinInt
	}
	var buf [21]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	whole := int(v)
	frac := int((v - float64(whole)) * 10)
	return itoa(whole) + "." + itoa(frac)
}

// --- Solver micro-benchmarks -------------------------------------------------

// BenchmarkLPActivationWave measures a lazy re-solve shaped like SQPR's
// node LPs: a few rows activate, a few dual pivots repair them, and only
// then do the next rows turn out violated. The LP is five independent
// chains min −Σx, x ∈ [0,10], x₀ ≤ 5, x_k − x_{k−1} ≤ δ: with no row active
// every variable sits at 10, where only each chain's first row is violated,
// and repairing row k is what violates row k+1 — 24 waves of five rows per
// solve. Each iteration restores the all-pinned-at-zero snapshot (no active
// row; the restore costs one factorization of an empty basis), releases the
// variables and re-solves. Bordered activation leaves refactors/op at that
// one plus the scheduled eta-limit refactorizes instead of one per wave on
// top; 0 allocs/op.
func BenchmarkLPActivationWave(b *testing.B) {
	const chains, length = 5, 24
	n := chains * length
	p := &lp.Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = -1
		p.Upper[j] = 10
	}
	for c := 0; c < chains; c++ {
		x := func(k int) int { return c*length + k }
		p.Cons = append(p.Cons, lp.Constraint{Terms: []lp.Term{{Var: x(0), Coef: 1}}, Sense: lp.LE, RHS: 5})
		for k := 1; k < length; k++ {
			p.Cons = append(p.Cons, lp.Constraint{
				Terms: []lp.Term{{Var: x(k), Coef: 1}, {Var: x(k - 1), Coef: -1}},
				Sense: lp.LE, RHS: 4.0 / length,
			})
		}
	}
	s := lp.NewSolver()
	s.SetLazy(true)
	if err := s.Load(p); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < n; j++ {
		s.Fix(j, false)
	}
	if sol := s.ReSolve(lp.Options{}); sol.Status != lp.Optimal {
		b.Fatalf("pinned solve: %v", sol.Status)
	}
	s.SaveBasis()
	before := s.FactorStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RestoreBasis()
		for j := 0; j < n; j++ {
			s.Unfix(j)
		}
		if sol := s.ReSolve(lp.Options{}); sol.Status != lp.Optimal {
			b.Fatalf("re-solve: %v", sol.Status)
		}
	}
	after := s.FactorStats()
	b.ReportMetric(float64(after.Refactors-before.Refactors)/float64(b.N), "refactors/op")
	b.ReportMetric(float64(after.RowEtas-before.RowEtas)/float64(b.N), "rowetas/op")
}
