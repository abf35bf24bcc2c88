package hier

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// submitOK drives the unified Submit and reports admission.
func submitOK(p *Planner, q dsps.StreamID) bool {
	res, err := p.Submit(context.Background(), q)
	return err == nil && res.Admitted
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = 150 * time.Millisecond
	return cfg
}

func buildWorkload(t *testing.T, hosts, queries int) (*dsps.System, []dsps.StreamID) {
	t.Helper()
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: hosts, CPUPerHost: 6, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = hosts * 5
	cfg.NumQueries = queries
	cfg.Arities = []int{2, 3}
	w := workload.Generate(sys, cfg)
	return sys, w.Queries
}

func TestPartitionCoversAllHosts(t *testing.T) {
	sys, _ := buildWorkload(t, 10, 1)
	p := New(sys, testConfig(), 3)
	seen := make(map[dsps.HostID]bool)
	total := 0
	for _, site := range p.Sites() {
		for _, h := range site {
			if seen[h] {
				t.Fatalf("host %d in two sites", h)
			}
			seen[h] = true
			total++
		}
	}
	if total != 10 {
		t.Fatalf("partition covers %d hosts", total)
	}
	// Near-equal sizes: 10 into 3 sites → 4,3,3.
	if len(p.Sites()[0]) != 4 || len(p.Sites()[1]) != 3 || len(p.Sites()[2]) != 3 {
		t.Fatalf("site sizes: %d %d %d", len(p.Sites()[0]), len(p.Sites()[1]), len(p.Sites()[2]))
	}
}

func TestSiteCountClamped(t *testing.T) {
	sys, _ := buildWorkload(t, 4, 1)
	if got := len(New(sys, testConfig(), 0).Sites()); got != 1 {
		t.Fatalf("zero sites -> %d", got)
	}
	if got := len(New(sys, testConfig(), 99).Sites()); got != 4 {
		t.Fatalf("too many sites -> %d", got)
	}
}

func TestHierarchicalAdmitsAndValidates(t *testing.T) {
	sys, queries := buildWorkload(t, 8, 12)
	p := New(sys, testConfig(), 2)
	admitted := 0
	for _, q := range queries {
		if submitOK(p, q) {
			admitted++
		}
		if err := p.Assignment().Validate(sys); err != nil {
			t.Fatalf("infeasible after submit: %v", err)
		}
	}
	if admitted == 0 {
		t.Fatal("hierarchical planner admitted nothing")
	}
	if p.AdmittedCount() == 0 {
		t.Fatal("bookkeeping lost admissions")
	}
}

func TestFallbackRecoversCrossSiteQueries(t *testing.T) {
	// Query with base streams split across two sites: without fallback the
	// primary site may fail; with it, admission must not be worse.
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: 4, CPUPerHost: 6, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a) // site 0
	sys.PlaceBase(3, b) // site 1
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)

	p := New(sys, testConfig(), 2)
	if !submitOK(p, op.Output) {
		t.Fatal("cross-site query rejected despite forced base hosts")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestSiteRoutingPrefersCoverage(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: 6, CPUPerHost: 6, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	// Both bases in the second site (hosts 3–5).
	sys.PlaceBase(4, a)
	sys.PlaceBase(5, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)

	p := New(sys, testConfig(), 2)
	order := p.rankSites(op.Output)
	if order[0] != 1 {
		t.Fatalf("site ranking %v, want site 1 first", order)
	}
	if !submitOK(p, op.Output) {
		t.Fatal("query rejected")
	}
	// The operator should be placed inside site 1.
	for _, pl := range p.Assignment().Ops {
		if pl.Op == op.ID && pl.Host < 3 {
			t.Fatalf("operator placed at host %d outside its site", pl.Host)
		}
	}
}

func TestHierarchicalVsFlatAdmissions(t *testing.T) {
	// The hierarchical planner must stay in the same ballpark as flat SQPR
	// (it trades optimality for per-call model size, not correctness).
	sys, queries := buildWorkload(t, 8, 10)
	hp := New(sys, testConfig(), 2)
	for _, q := range queries {
		hp.Submit(context.Background(), q)
	}

	sysF, queriesF := buildWorkload(t, 8, 10)
	fp := core.NewPlanner(sysF, testConfig())
	for _, q := range queriesF {
		fp.Submit(context.Background(), q)
	}
	if hp.AdmittedCount() == 0 {
		t.Fatal("hierarchical admitted nothing")
	}
	if hp.AdmittedCount() < fp.AdmittedCount()/2 {
		t.Fatalf("hierarchical admissions collapsed: %d vs flat %d", hp.AdmittedCount(), fp.AdmittedCount())
	}
}
