package soda

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/workload"
)

// submitOK drives the unified Submit and reports admission.
func submitOK(p *Planner, q dsps.StreamID) bool {
	res, err := p.Submit(context.Background(), q)
	return err == nil && res.Admitted
}

func buildWorkload(t *testing.T, hosts, bases, queries int) (*dsps.System, []dsps.StreamID) {
	t.Helper()
	sys := workload.BuildSystem(workload.SystemConfig{
		NumHosts: hosts, CPUPerHost: 8, OutBW: 80, InBW: 80, LinkCap: 40,
	})
	cfg := workload.DefaultConfig()
	cfg.NumBaseStreams = bases
	cfg.NumQueries = queries
	cfg.Arities = []int{2, 3}
	w := workload.Generate(sys, cfg)
	return sys, w.Queries
}

func TestAdmitsQueries(t *testing.T) {
	sys, queries := buildWorkload(t, 4, 20, 10)
	p := New(sys)
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
		t.Fatal("SODA admitted nothing")
	}
}

func TestTemplateIsLeftDeep(t *testing.T) {
	sys, queries := buildWorkload(t, 2, 6, 3)
	p := New(sys)
	for _, q := range queries {
		tmpl, ok := p.template(q)
		if !ok {
			t.Fatalf("no template for query %d", q)
		}
		bases := p.baseSetOf(q)
		if len(tmpl) != len(bases)-1 {
			t.Fatalf("template has %d ops for %d bases", len(tmpl), len(bases))
		}
		// The final operator must output the query stream.
		if sys.Operators[tmpl[len(tmpl)-1]].Output != q {
			t.Fatal("template does not end at the query stream")
		}
	}
}

func TestReuseByGluingTemplates(t *testing.T) {
	// Two identical queries: the second must fully reuse the first's ops.
	sys, queries := buildWorkload(t, 3, 4, 8)
	p := New(sys)
	for _, q := range queries {
		submitOK(p, q)
	}
	// Count operator placements vs distinct placed operators: each op may
	// run at most once (gluing means no duplicates).
	seen := map[dsps.OperatorID]int{}
	for _, pl := range p.Assignment().Ops {
		seen[pl.Op]++
	}
	for op, n := range seen {
		if n > 1 {
			t.Fatalf("operator %d placed %d times (no gluing)", op, n)
		}
	}
}

func TestMacroQRejectsWhenAggregateCPUExhausted(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 0.5, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)
	p := New(sys)
	if submitOK(p, op.Output) {
		t.Fatal("macroQ failed to reject an unservable query")
	}
}

func TestDuplicateQueryFreeOfCharge(t *testing.T) {
	sys, queries := buildWorkload(t, 3, 4, 1)
	p := New(sys)
	if !submitOK(p, queries[0]) {
		t.Fatal("first submit failed")
	}
	cpuBefore := p.Assignment().ComputeUsage(sys).TotalCPU()
	if !submitOK(p, queries[0]) {
		t.Fatal("duplicate rejected")
	}
	cpuAfter := p.Assignment().ComputeUsage(sys).TotalCPU()
	if cpuAfter != cpuBefore {
		t.Fatalf("duplicate consumed CPU: %v -> %v", cpuBefore, cpuAfter)
	}
}

func TestBaseSetOf(t *testing.T) {
	sys, queries := buildWorkload(t, 2, 8, 4)
	p := New(sys)
	for _, q := range queries {
		bases := p.baseSetOf(q)
		if len(bases) < 2 {
			t.Fatalf("query %d has base set %v", q, bases)
		}
		for i := 1; i < len(bases); i++ {
			if bases[i-1] >= bases[i] {
				t.Fatal("base set not sorted")
			}
		}
		for _, b := range bases {
			if !sys.Streams[b].IsBase() {
				t.Fatalf("non-base stream %d in base set", b)
			}
		}
	}
}

// TestSkipsHostShortOfMemory: host 0 has the roomier CPU and wins the
// load-balance tie, but not the memory for the join; host 1 has. miniW must
// skip host 0 (the capacity rulebook counts memory), not pick it and have
// validation throw the whole candidate away.
func TestSkipsHostShortOfMemory(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 20, Mem: 1, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, Mem: 4, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 50)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(1, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	op.Mem = 2
	sys.SetRequested(op.Output, true)
	p := New(sys)
	res, err := p.Submit(context.Background(), op.Output)
	if err != nil || !res.Admitted {
		t.Fatalf("Submit = %+v, %v; host 1 fits the query", res, err)
	}
	if !p.Assignment().HasOp(dsps.Placement{Host: 1, Op: op.ID}) {
		t.Fatalf("join not on host 1: %v", p.Assignment().Ops)
	}
}

// TestSODAIsDeterministic: two fresh planners fed the same system and query
// sequence end in byte-identical states. miniW ranks hosts by the MaxCPU of
// a ledger summed over the allocation, so the allocation's iteration order
// reaches the float sums that break its load-balance ties. The workload is
// the two waves of sqpr-cluster's Fig. 7a, which saturate the cluster, so
// those ties decide admissions.
func TestSODAIsDeterministic(t *testing.T) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
	queries := workload.Generate(sys, workload.Config{
		NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 100,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	}).Queries
	var states [2][]byte
	for i := range states {
		p := New(sys)
		for _, q := range queries {
			submitOK(p, q)
		}
		var err error
		if states[i], err = json.Marshal(p.ExportState()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Fatalf("two runs of one sequence diverged:\n%s\nvs\n%s", states[0], states[1])
	}
}
