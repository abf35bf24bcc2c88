// Benchmarks regenerating every figure of the SQPR paper's evaluation
// (§V), plus ablations of the design choices documented in DESIGN.md.
//
// Each benchmark runs the figure's experiment at a compact scale and
// reports the headline quantity (satisfied queries, average planning time)
// via b.ReportMetric, so `go test -bench=. -benchmem` reproduces the
// paper's series alongside allocation profiles. EXPERIMENTS.md records a
// full-scale run of the same experiments via cmd/sqpr-sim and
// cmd/sqpr-cluster.
package sqpr_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/hier"
	"sqpr/internal/lp"
	"sqpr/internal/milp"
	"sqpr/internal/plan"
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

// --- Ablations ---------------------------------------------------------------

// runAblation executes the bench workload under a config mutation and
// returns (admitted, avg plan time, cumulative planner stats).
func runAblation(mutate func(*core.Config)) (int, time.Duration, core.Stats) {
	sc := benchScale()
	env := sim.BuildEnv(sc)
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	mutate(&cfg)
	p := core.NewPlanner(env.Sys, cfg)
	var total time.Duration
	ctx := context.Background()
	for _, q := range env.Queries {
		res, err := p.Submit(ctx, q)
		if err != nil {
			break
		}
		total += res.PlanTime
	}
	if len(env.Queries) == 0 {
		return p.AdmittedCount(), 0, p.Stats()
	}
	return p.AdmittedCount(), total / time.Duration(len(env.Queries)), p.Stats()
}

func benchAblation(b *testing.B, mutate func(*core.Config)) {
	var admitted int
	var avg time.Duration
	var st core.Stats
	for i := 0; i < b.N; i++ {
		admitted, avg, st = runAblation(mutate)
	}
	b.ReportMetric(float64(admitted), "admitted")
	b.ReportMetric(float64(avg.Microseconds()), "us-per-plan")
	if st.Submissions > 0 {
		per := 1 / float64(st.Submissions)
		b.ReportMetric(float64(st.TotalNodes)*per, "nodes/solve")
		b.ReportMetric(float64(st.TotalLPIters)*per, "lp-iters/solve")
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations.
func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(*core.Config) {})
}

// BenchmarkAblationRelay disables stream relaying (§II-C): senders may only
// ship streams they originate.
func BenchmarkAblationRelay(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableRelay = true })
}

// BenchmarkAblationReplan freezes all prior placements, removing the
// replanning freedom behind constraint (IV.9).
func BenchmarkAblationReplan(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableReplan = true })
}

// BenchmarkAblationWarmStart withholds the greedy incumbent from the MILP.
func BenchmarkAblationWarmStart(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableWarmStart = true })
}

// BenchmarkAblationLoadBalance drops the λ4 load-balancing objective.
func BenchmarkAblationLoadBalance(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Weights.L4 = 0 })
}

// BenchmarkAblationReduction plans over the full stream/operator space,
// which the paper proves strongly NP-hard and intractable at scale; run on
// a deliberately tiny instance.
func BenchmarkAblationReduction(b *testing.B) {
	var admitted int
	var avg time.Duration
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Hosts = 4
		sc.BaseStreams = 10
		sc.Queries = 6
		env := sim.BuildEnv(sc)
		cfg := core.DefaultConfig()
		cfg.SolveTimeout = sc.Timeout
		cfg.DisableReduction = true
		cfg.MaxFreeStreams = 1 << 20
		cfg.MaxCandidateHosts = sc.Hosts
		p := core.NewPlanner(env.Sys, cfg)
		var total time.Duration
		ctx := context.Background()
		for _, q := range env.Queries {
			res, err := p.Submit(ctx, q)
			if err != nil {
				break
			}
			total += res.PlanTime
		}
		admitted = p.AdmittedCount()
		avg = total / time.Duration(len(env.Queries))
	}
	b.ReportMetric(float64(admitted), "admitted")
	b.ReportMetric(float64(avg.Microseconds()), "us-per-plan")
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

// BenchmarkChurnRepair measures the churn-repair path: after a failure of
// the busiest host, the delta-MILP Repair (pin survivors, re-solve only
// the affected closures from the warm incumbent) is timed against two
// baselines on identical workloads — remove-and-resubmit of the affected
// queries, and a cold full re-solve of the entire workload on the degraded
// system (what a planner without repair state would have to do).
func BenchmarkChurnRepair(b *testing.B) {
	sc := benchScale()
	ctx := context.Background()
	mkPlanner := func(sys *dsps.System) *core.Planner {
		cfg := core.DefaultConfig()
		cfg.SolveTimeout = sc.Timeout
		cfg.MaxCandidateHosts = sc.MaxCandHost
		return core.NewPlanner(sys, cfg)
	}
	busiest := func(a *dsps.Assignment) dsps.HostID {
		counts := map[dsps.HostID]int{}
		for _, pl := range a.Ops {
			counts[pl.Host]++
		}
		best, bestN := dsps.HostID(0), -1
		for h, n := range counts {
			if n > bestN || (n == bestN && h < best) {
				best, bestN = h, n
			}
		}
		return best
	}

	var repairT, resubmitT, coldT time.Duration
	var repairKept, coldKept, repairMig, resubmitMig int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		envA := sim.BuildEnv(sc)
		pA := mkPlanner(envA.Sys)
		for _, q := range envA.Queries {
			if _, err := pA.Submit(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		fail := busiest(pA.Assignment())
		events := []plan.Event{plan.FailHost(fail)}

		envB := sim.BuildEnv(sc)
		pB := mkPlanner(envB.Sys)
		for _, q := range envB.Queries {
			if _, err := pB.Submit(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		envC := sim.BuildEnv(sc)
		if err := plan.ApplyEvents(envC.Sys, events); err != nil {
			b.Fatal(err)
		}
		pC := mkPlanner(envC.Sys)
		b.StartTimer()

		start := time.Now()
		rrA, err := pA.Repair(ctx, events)
		if err != nil {
			b.Fatal(err)
		}
		repairT += time.Since(start)

		start = time.Now()
		rrB, err := plan.RepairByResubmit(ctx, envB.Sys, pB, events)
		if err != nil {
			b.Fatal(err)
		}
		resubmitT += time.Since(start)

		start = time.Now()
		for _, q := range envC.Queries {
			if _, err := pC.Submit(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		coldT += time.Since(start)

		repairKept = pA.AdmittedCount()
		coldKept = pC.AdmittedCount()
		repairMig = rrA.Migrated
		resubmitMig = rrB.Migrated
	}
	n := time.Duration(b.N)
	b.ReportMetric(float64((repairT / n).Microseconds()), "repair-us")
	b.ReportMetric(float64((resubmitT / n).Microseconds()), "resubmit-us")
	b.ReportMetric(float64((coldT / n).Microseconds()), "cold-resolve-us")
	b.ReportMetric(float64(repairKept), "repair-admitted")
	b.ReportMetric(float64(coldKept), "cold-admitted")
	b.ReportMetric(float64(repairMig), "repair-migrated")
	b.ReportMetric(float64(resubmitMig), "resubmit-migrated")
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

// lpResolveProblem builds a mid-size bounded LP representative of one SQPR
// node relaxation.
func lpResolveProblem(rng *rand.Rand, n, mrows int) *lp.Problem {
	p := &lp.Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.Float64()*4 - 2
		p.Upper[j] = 1
	}
	for i := 0; i < mrows; i++ {
		terms := make([]lp.Term, 0, 6)
		for k := 0; k < 2+rng.Intn(5); k++ {
			terms = append(terms, lp.Term{Var: rng.Intn(n), Coef: rng.Float64()*2 - 0.5})
		}
		p.Cons = append(p.Cons, lp.Constraint{Terms: terms, Sense: lp.LE, RHS: 0.5 + rng.Float64()*3})
	}
	return p
}

// BenchmarkLPResolve measures the steady-state warm re-solve after a single
// bound tightening plus its undo — the branch-and-bound inner loop. The
// acceptance criterion is 0 allocs/op.
func BenchmarkLPResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := lpResolveProblem(rng, 120, 90)
	s := lp.NewSolver()
	s.SetLazy(true)
	if err := s.Load(p); err != nil {
		b.Fatal(err)
	}
	if sol := s.ReSolve(lp.Options{}); sol.Status != lp.Optimal {
		b.Fatalf("cold solve: %v", sol.Status)
	}
	s.SaveBasis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % p.NumVars
		s.Fix(j, i%2 == 0)
		s.ReSolve(lp.Options{})
		s.Unfix(j)
		s.ReSolve(lp.Options{})
	}
}

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

// BenchmarkMILPNode measures whole branch-and-bound nodes on a knapsack
// with conflicts: allocations per node stay bounded by the node bookkeeping
// (the LP re-solves themselves are allocation-free).
func BenchmarkMILPNode(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	m := milp.NewModel()
	vars := make([]milp.Var, n)
	terms := make([]milp.Term, n)
	weights := make([]milp.Term, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary("x")
		terms[i] = milp.Term{Var: vars[i], Coef: 1 + rng.Float64()*14}
		weights[i] = milp.Term{Var: vars[i], Coef: 1 + rng.Float64()*9}
	}
	m.SetObjective(true, terms...)
	m.AddCons("cap", milp.LE, float64(2*n), weights...)
	for i := 0; i+1 < n; i += 3 {
		m.AddCons("pair", milp.LE, 1, milp.Term{Var: vars[i], Coef: 1}, milp.Term{Var: vars[i+1], Coef: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalNodes := 0
	for i := 0; i < b.N; i++ {
		res := m.Solve(milp.Options{MaxNodes: 100000})
		if res.Status != milp.OptimalMIP {
			b.Fatalf("status %v", res.Status)
		}
		totalNodes += res.Nodes
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totalNodes)/float64(b.N), "nodes-per-solve")
	}
}

// --- Admission service: concurrent submitters vs one serial caller ---------

// serviceRun pushes the workload through a plan.Service with `submitters`
// concurrent client goroutines and returns submissions/sec, the admitted
// count and a per-query admitted lookup.
func serviceRun(b *testing.B, sc sim.Scale, submitters int) (sps float64, admitted int, isAdmitted func(dsps.StreamID) bool) {
	b.Helper()
	ctx := context.Background()
	env := sim.BuildEnv(sc)
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	cfg.MaxFreeStreams = 30
	svc := plan.NewService(core.NewPlanner(env.Sys, cfg), plan.ServiceConfig{})
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(env.Queries); j += submitters {
				if _, err := svc.Submit(ctx, env.Queries[j]); err != nil {
					b.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	sps = float64(len(env.Queries)) / time.Since(start).Seconds()
	admitted = svc.AdmittedCount()
	svc.Close()
	adm := make(map[dsps.StreamID]bool, admitted)
	for _, q := range env.Queries {
		if svc.Admitted(q) {
			adm[q] = true
		}
	}
	return sps, admitted, func(q dsps.StreamID) bool { return adm[q] }
}

// serialRun submits the workload one query at a time in workload order on a
// bare planner: the service's cost and admitted set are read against it.
func serialRun(b *testing.B, sc sim.Scale) (sps float64, admitted int, isAdmitted func(dsps.StreamID) bool) {
	b.Helper()
	ctx := context.Background()
	env := sim.BuildEnv(sc)
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	cfg.MaxFreeStreams = 30
	p := core.NewPlanner(env.Sys, cfg)
	start := time.Now()
	for _, q := range env.Queries {
		if _, err := p.Submit(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	sps = float64(len(env.Queries)) / time.Since(start).Seconds()
	return sps, p.AdmittedCount(), p.Admitted
}

// BenchmarkServiceThroughput measures the admission service against
// serialized one-at-a-time submission on the Fig-4 workload with 64
// concurrent submitters, at two operating points:
//
//   - the pre-saturation prefix of the workload (the serialized baseline
//     admits every distinct query). One pass is 40 queries in well under a
//     fifth of a second and its cost depends on the order the submitters
//     happened to arrive in, so each iteration averages preReps passes.
//     set-equal is the share of passes whose admitted set matched the
//     serialized baseline exactly. It is gated loosely (bench.sh: >= 0.5),
//     not at 1: the planner's admission is order-dependent at this scale
//     (submitting the 40 queries one at a time in a random order misses one
//     or two in about a third of the orders), so a pass can end a query
//     short of workload order. That the service itself loses nothing is
//     pinned where it is deterministic, by
//     TestServiceConcurrentSubmittersMatchSerialAdmissions and
//     TestServiceConformance;
//   - the full saturated workload, where the arrival order of 64 racing
//     submitters legitimately admits a different (typically larger) query
//     set than workload order, so only throughput and admitted counts are
//     reported (sat-* metrics).
//
// All metrics feed BENCH_4.json via scripts/bench.sh; scripts/perfcheck.sh
// fails when either service throughput falls more than 25% below the
// committed file.
func BenchmarkServiceThroughput(b *testing.B) {
	const (
		submitters = 64
		preReps    = 5
	)

	// Pre-saturation prefix of the Fig-4 workload. Both paths run under
	// the same tightened 40ms per-solve budget (ample at this scale: the
	// serial baseline admits the identical set at 40ms and 150ms).
	pre := sim.DefaultScale()
	pre.Queries = 40
	pre.Timeout = 40 * time.Millisecond
	// Full Fig-4 workload, saturated.
	sat := sim.DefaultScale()

	var preSvcSecs, preSerialSecs float64
	var preSvcAdm, preSerialAdm, preEqual int
	var satSvcSPS, satSerialSPS float64
	var satSvcAdm, satSerialAdm int

	for i := 0; i < b.N; i++ {
		for r := 0; r < preReps; r++ {
			serialSPS, serialAdm, serialIs := serialRun(b, pre)
			svcSPS, svcAdm, svcIs := serviceRun(b, pre, submitters)
			preSerialSecs += float64(pre.Queries) / serialSPS
			preSvcSecs += float64(pre.Queries) / svcSPS
			preSerialAdm, preSvcAdm = serialAdm, svcAdm
			equal := true
			for _, q := range sim.BuildEnv(pre).Queries {
				if svcIs(q) != serialIs(q) {
					equal = false
				}
			}
			if equal {
				preEqual++
			}
		}

		satSerialSPS, satSerialAdm, _ = serialRun(b, sat)
		satSvcSPS, satSvcAdm, _ = serviceRun(b, sat, submitters)
	}

	passes := float64(b.N * preReps)
	b.ReportMetric(passes*float64(pre.Queries)/preSvcSecs, "svc-subs-per-sec")
	b.ReportMetric(passes*float64(pre.Queries)/preSerialSecs, "serial-subs-per-sec")
	b.ReportMetric(float64(preSvcAdm), "svc-admitted")
	b.ReportMetric(float64(preSerialAdm), "serial-admitted")
	b.ReportMetric(float64(preEqual)/passes, "set-equal")
	b.ReportMetric(satSvcSPS, "sat-svc-subs-per-sec")
	b.ReportMetric(satSerialSPS, "sat-serial-subs-per-sec")
	b.ReportMetric(float64(satSvcAdm), "sat-svc-admitted")
	b.ReportMetric(float64(satSerialAdm), "sat-serial-admitted")
}
