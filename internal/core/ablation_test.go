package core

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// relayScenario needs relaying to admit its query: the two base streams
// live on hosts whose direct link is saturated by a pre-existing flow, so
// the only feasible route goes through the third host.
func relayScenario(t *testing.T) (*dsps.System, dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 4, OutBW: 40, InBW: 40},
		{ID: 1, CPU: 0, OutBW: 40, InBW: 40}, // no CPU: cannot host operators
		{ID: 2, CPU: 4, OutBW: 40, InBW: 40},
	}
	sys := dsps.NewSystem(hosts, 40)
	// Choke the direct links between hosts 0 and 2 in both directions.
	sys.LinkCap[0][2] = 0
	sys.LinkCap[2][0] = 0
	a := sys.AddStream(10, dsps.NoOperator, "a")
	b := sys.AddStream(10, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(2, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)
	return sys, op.Output
}

func TestRelayEnablesAdmission(t *testing.T) {
	sys, q := relayScenario(t)
	cfg := DefaultConfig()
	cfg.SolveTimeout = 3 * time.Second
	p := NewPlanner(sys, cfg)
	res, err := p.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatal("query not admitted although a relay route exists")
	}
	// The plan must route one base stream through host 1 (the relay).
	usedRelay := false
	for _, f := range p.Assignment().Flows {
		if f.From == 1 || f.To == 1 {
			usedRelay = true
		}
	}
	if !usedRelay {
		t.Fatal("no flow touches the relay host")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestDisableReductionMatchesOnTinyInstance(t *testing.T) {
	// With reduction disabled the model covers everything; on a tiny
	// instance both variants must admit the query.
	build := func(disable bool) bool {
		sys, q := twoHostSystem(t)
		cfg := DefaultConfig()
		cfg.SolveTimeout = 3 * time.Second
		cfg.DisableReduction = disable
		cfg.MaxFreeStreams = 1 << 20
		p := NewPlanner(sys, cfg)
		res, err := p.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Admitted
	}
	if !build(false) || !build(true) {
		t.Fatal("reduction toggle changed a trivial admission")
	}
}

func TestMemoryConstraintBlocksPlacement(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100, Mem: 1}, // too little memory
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100, Mem: 10},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.Operators[op.ID].Mem = 5 // fits host 1 only
	sys.SetRequested(op.Output, true)

	cfg := DefaultConfig()
	cfg.SolveTimeout = 3 * time.Second
	p := NewPlanner(sys, cfg)
	res, err := p.Submit(context.Background(), op.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatal("query rejected although host 1 has memory")
	}
	for _, pl := range p.Assignment().Ops {
		if pl.Op == op.ID && pl.Host != 1 {
			t.Fatalf("operator placed on memory-starved host %d", pl.Host)
		}
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}

func TestWithCandidateHostsRestricts(t *testing.T) {
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 2, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "ab")
	sys.SetRequested(op.Output, true)

	cfg := DefaultConfig()
	cfg.SolveTimeout = 3 * time.Second
	p := NewPlanner(sys, cfg)
	// Restrict to hosts {0, 1}; host 2 must stay untouched.
	res, err := p.Submit(context.Background(), op.Output, plan.WithCandidateHosts(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatal("restricted submit rejected a feasible query")
	}
	for _, pl := range p.Assignment().Ops {
		if pl.Host == 2 {
			t.Fatalf("operator leaked onto excluded host 2: %+v", pl)
		}
	}
	for _, f := range p.Assignment().Flows {
		if f.From == 2 || f.To == 2 {
			t.Fatalf("flow leaked onto excluded host 2: %+v", f)
		}
	}
}
