package sim

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// tinyScale keeps simulation tests fast.
func tinyScale() Scale {
	sc := DefaultScale()
	sc.Hosts = 6
	sc.BaseStreams = 30
	sc.Queries = 20
	sc.Timeout = 60 * time.Millisecond
	sc.MaxCandHost = 6
	sc.Arities = []int{2, 3}
	return sc
}

func TestRunAdmissionCurve(t *testing.T) {
	sc := tinyScale()
	env := BuildEnv(sc)
	c := RunAdmission("sqpr", env.NewSQPR(sc, sc.Timeout), env.Queries, 5)
	if len(c.Inputs) == 0 {
		t.Fatal("no checkpoints")
	}
	if c.Inputs[len(c.Inputs)-1] != sc.Queries {
		t.Fatalf("final checkpoint %d != %d", c.Inputs[len(c.Inputs)-1], sc.Queries)
	}
	for i := 1; i < len(c.Satisfied); i++ {
		if c.Satisfied[i] < c.Satisfied[i-1] {
			t.Fatal("admission curve decreased (queries were dropped)")
		}
	}
	if c.Satisfied[len(c.Satisfied)-1] == 0 {
		t.Fatal("nothing admitted")
	}
}

func TestBoundDominatesSQPRAndHeuristic(t *testing.T) {
	sc := tinyScale()

	envB := BuildEnv(sc)
	b := envB.NewBound()
	for _, q := range envB.Queries {
		b.Submit(context.Background(), q)
	}

	envS := BuildEnv(sc)
	s := envS.NewSQPR(sc, sc.Timeout)
	for _, q := range envS.Queries {
		s.Submit(context.Background(), q)
	}

	envH := BuildEnv(sc)
	h := envH.NewHeuristic()
	for _, q := range envH.Queries {
		h.Submit(context.Background(), q)
	}

	if s.AdmittedCount() > b.AdmittedCount() {
		t.Fatalf("SQPR (%d) exceeded the optimistic bound (%d)", s.AdmittedCount(), b.AdmittedCount())
	}
	if h.AdmittedCount() > b.AdmittedCount() {
		t.Fatalf("heuristic (%d) exceeded the optimistic bound (%d)", h.AdmittedCount(), b.AdmittedCount())
	}
}

func TestRecorderTelemetry(t *testing.T) {
	sc := tinyScale()
	env := BuildEnv(sc)
	ad := env.NewSQPR(sc, sc.Timeout)
	for _, q := range env.Queries[:5] {
		ad.Submit(context.Background(), q)
	}
	if len(ad.PlanTimes) != 5 || len(ad.UtilisationAt) != 5 {
		t.Fatalf("telemetry lengths: %d/%d", len(ad.PlanTimes), len(ad.UtilisationAt))
	}
	if ad.UtilisationAt[0] != 0 {
		t.Fatalf("initial utilisation %v, want 0", ad.UtilisationAt[0])
	}
}

func TestFig4cOverlapImprovesAdmission(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 16
	res := Fig4c(sc, []float64{0, 1.5}, []int{12})
	if len(res.Satisfied) != 1 || len(res.Satisfied[0]) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	// Not a strict theorem at tiny scale, but gross violations indicate a
	// broken reuse path: skew must not decimate admissions.
	lo, hi := res.Satisfied[0][0], res.Satisfied[0][1]
	if hi < lo/2 {
		t.Fatalf("high overlap admitted %d vs %d at uniform — reuse path broken", hi, lo)
	}
}

func TestFig5aMoreHostsMoreQueries(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 16
	res := Fig5a(sc, []int{3, 8})
	if len(res.SQPR) != 2 || len(res.Bound) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	if res.SQPR[1] < res.SQPR[0] {
		t.Fatalf("more hosts admitted fewer queries: %v", res.SQPR)
	}
	for i := range res.SQPR {
		if res.SQPR[i] > res.Bound[i] {
			t.Fatalf("SQPR above bound at %d hosts", res.X[i])
		}
	}
}

func TestTimedRunProducesSamples(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 10
	avg, n, errs := timedRun(sc)
	if errs != 0 {
		t.Fatalf("timedRun errors = %d, want 0", errs)
	}
	if n == 0 {
		t.Fatal("no timing samples")
	}
	if avg <= 0 {
		t.Fatalf("average plan time %v", avg)
	}
}

func TestUtilisationCDFs(t *testing.T) {
	sc := tinyScale()
	env := BuildEnv(sc)
	ad := env.NewSQPR(sc, sc.Timeout)
	for _, q := range env.Queries[:8] {
		ad.Submit(context.Background(), q)
	}
	cpu, net := UtilisationCDFs(env.Sys, ad.Assignment())
	if cpu.Len() != sc.Hosts || net.Len() != sc.Hosts {
		t.Fatalf("CDF sizes: %d/%d", cpu.Len(), net.Len())
	}
	if cpu.Quantile(1) > 100+1e-9 {
		t.Fatalf("CPU utilisation above 100%%: %v", cpu.Quantile(1))
	}
}

func TestDeployAndMeasure(t *testing.T) {
	sc := tinyScale()
	sc.Queries = 6
	env := BuildEnv(sc)
	ad := env.NewSQPR(sc, sc.Timeout)
	for _, q := range env.Queries {
		ad.Submit(context.Background(), q)
	}
	rep, err := DeployAndMeasure(env.Sys, ad.Assignment(), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var work float64
	for _, c := range rep.CPUWork {
		work += c
	}
	if ad.AdmittedCount() > 0 && work == 0 {
		t.Fatal("engine performed no work for a non-empty plan")
	}
}

// TestDeployAndMeasureIsDeterministic plans the single-wave Fig. 7
// cluster (sqpr-cluster's deployment check) and runs the plan twice on
// the engine: the two reports are equal field for field.
func TestDeployAndMeasureIsDeterministic(t *testing.T) {
	ds := DefaultDeployScale()
	sc := Scale{
		Hosts: ds.Hosts, CPUPerHost: ds.CPUPerHost, OutBW: ds.OutBW,
		InBW: ds.InBW, LinkCap: ds.LinkCap, BaseStreams: ds.BaseStreams,
		BaseRate: ds.BaseRate, Queries: ds.WaveSize, Zipf: 1,
		Arities: []int{2, 3}, Timeout: ds.Timeout, MaxCandHost: 8, Seed: ds.Seed,
	}
	env := BuildEnv(sc)
	ad := env.NewSQPR(sc, sc.Timeout)
	for _, q := range env.Queries {
		ad.Submit(context.Background(), q)
	}
	first, err := DeployAndMeasure(env.Sys, ad.Assignment(), 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DeployAndMeasure(env.Sys, ad.Assignment(), 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Results) == 0 {
		t.Fatal("the cluster plan delivered no results")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of one plan differ:\n%+v\n%+v", first, second)
	}
}

func TestFig7SmokeTest(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment study in -short mode")
	}
	ds := DefaultDeployScale()
	ds.Hosts = 8
	ds.BaseStreams = 40
	ds.WaveSize = 10
	ds.Waves = 2
	ds.Timeout = 60 * time.Millisecond
	res := Fig7(context.Background(), ds)
	if len(res.Inputs) != 2 {
		t.Fatalf("waves: %v", res.Inputs)
	}
	if res.SQPR[1] < res.SQPR[0] || res.SODA[1] < res.SODA[0] {
		t.Fatal("admission counts decreased across waves")
	}
	if res.CPULowSQPR == nil || res.CPULowSODA == nil {
		t.Fatal("missing low-checkpoint CDFs")
	}
}
