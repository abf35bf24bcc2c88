package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// commitChecks counts how a walk's seed-decided commits were checked: by
// the extension's check (scoped) or, after pruning deleted something, by a
// full Validate (fallback).
type commitChecks struct{ scoped, fallback int }

// checkedSubmit submits q on p, first replaying the call's seed-decided
// tail on the same planner: when the seed decides, the commit check the
// call takes must give a full Validate's verdict, and Submit must then
// commit exactly the seed it passed (or nothing, had it refused).
func checkedSubmit(t *testing.T, p *Planner, q dsps.StreamID, n *commitChecks) Result {
	t.Helper()
	ctx := context.Background()
	p.beginCall(plan.SubmitConfig{})
	b := p.newBuilder([]dsps.StreamID{q}, false)
	seed := b.seed(ctx)
	_, placed := seed.Provider(q)
	decided := b.numVars() >= largeModelVars && placed
	var want *dsps.Assignment
	if decided {
		var added *dsps.Extension
		if b.pruneUnused(seed) {
			n.fallback++
		} else {
			n.scoped++
			added = b.trial.Extension(0)
		}
		var check Result
		var err error
		want, err = p.validated(seed, added, &check)
		if full := seed.Validate(p.sys); (err == nil) != (full == nil) {
			t.Fatalf("query %d: the commit check says %v, Validate says %v", q, err, full)
		}
	}
	res, err := p.Submit(ctx, q)
	if err != nil && want != nil {
		t.Fatalf("query %d: %v", q, err)
	}
	if decided {
		got := p.Assignment()
		switch {
		case !res.SeedClosed:
			t.Fatalf("query %d: the replay's seed decides, Submit's does not: %+v", q, res)
		case want == nil && (res.Admitted || res.Reason != plan.ReasonValidationFailed):
			t.Fatalf("query %d: the commit check refused the seed, Submit gave %+v", q, res)
		case want != nil && !(res.Admitted && slices.Equal(got.Flows, want.Flows) && slices.Equal(got.Ops, want.Ops) && slices.Equal(got.Provides, want.Provides)):
			t.Fatalf("query %d: Submit committed another allocation than the checked seed (%+v)", q, res)
		}
	}
	return res
}

// TestSeedCommitCheckMatchesValidate replays the benchmark's large_state
// fixture — its 32-host population, 300 queries admitted, then a
// submit/remove churn — and the S15 churn walk through Submit, and checks
// every seed-decided commit against a full Validate (checkedSubmit).
func TestSeedCommitCheckMatchesValidate(t *testing.T) {
	t.Run("large_state", func(t *testing.T) {
		sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 32, CPUPerHost: 40, OutBW: 300, InBW: 300, LinkCap: 80})
		w := workload.Generate(sys, workload.Config{
			NumBaseStreams: 1200, BaseRate: 10, Arities: []int{2, 3}, NumQueries: 800,
			SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
		})
		cfg := DefaultConfig()
		cfg.SolveTimeout = time.Minute
		cfg.MaxCandidateHosts = 8
		cfg.MaxFreeStreams = 30
		p := NewPlanner(sys, cfg)
		var n commitChecks
		var pop []dsps.StreamID
		for _, q := range w.Queries {
			if !slices.Contains(pop, q) {
				pop = append(pop, q)
			}
		}
		for _, q := range pop {
			if p.AdmittedCount() == 300 {
				break
			}
			checkedSubmit(t, p, q, &n)
		}
		rng := rand.New(rand.NewSource(5))
		for range 100 {
			adm := p.AdmittedQueries()
			if err := p.Remove(adm[rng.Intn(len(adm))]); err != nil {
				t.Fatal(err)
			}
			if q := pop[rng.Intn(len(pop))]; !p.Admitted(q) {
				checkedSubmit(t, p, q, &n)
			}
		}
		t.Logf("%d commits checked by the extension's check, %d by the fallback", n.scoped, n.fallback)
		if n.scoped < 300 {
			t.Fatalf("only %d seed-decided commits took the extension's check", n.scoped)
		}
	})
	t.Run("S15 churn walk", func(t *testing.T) {
		w := newChurnWalk()
		var n commitChecks
		for range walkSteps {
			checkedSubmit(t, w.p, w.next(t), &n)
		}
		t.Logf("%d commits checked by the extension's check, %d by the fallback", n.scoped, n.fallback)
		if n.scoped == 0 {
			t.Fatal("no seed-decided commit took the extension's check")
		}
	})
}

// TestSeedCommitFallsBackWhenPruned imports a collected, valid allocation
// that feeds x to host 2 twice — from its base host 0 and relayed through
// host 1 — and submits a query that reads x too. The sharing merge frees
// x, so pruning keeps one inflow and deletes the relay: the seed is no
// longer the old allocation plus what the call added, and the commit is
// checked by a full Validate.
func TestSeedCommitFallsBackWhenPruned(t *testing.T) {
	hosts := make([]dsps.Host, 6)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 10, OutBW: 100, InBW: 100}
	}
	sys := dsps.NewSystem(hosts, 50)
	x := sys.AddStream(5, dsps.NoOperator, "x")
	sys.PlaceBase(0, x)
	fa := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "a")
	fb := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "b")
	sys.SetRequested(fa.Output, true)
	sys.SetRequested(fb.Output, true)

	a := dsps.NewAssignment()
	a.AddFlow(dsps.Flow{From: 0, To: 1, Stream: x})
	a.AddFlow(dsps.Flow{From: 1, To: 2, Stream: x})
	a.AddFlow(dsps.Flow{From: 0, To: 2, Stream: x})
	a.AddOp(dsps.Placement{Host: 2, Op: fa.ID})
	a.SetProvide(fa.Output, 2)
	p := NewPlanner(sys, DefaultConfig())
	if err := p.ImportState(plan.ExportedState(sys, a, []dsps.StreamID{fa.Output})); err != nil {
		t.Fatal(err)
	}
	if len(p.Assignment().Flows) != 3 {
		t.Fatalf("the import kept %d of the 3 flows; the redundant inflow is gone before the test", len(p.Assignment().Flows))
	}

	var n commitChecks
	if res := checkedSubmit(t, p, fb.Output, &n); !res.Admitted || !res.SeedClosed {
		t.Fatalf("query b: %+v", res)
	}
	if n.fallback != 1 || n.scoped != 0 {
		t.Fatalf("the commit took the extension's check %d times and the fallback %d times, want the fallback once", n.scoped, n.fallback)
	}
	if p.Assignment().HasFlow(dsps.Flow{From: 1, To: 2, Stream: x}) {
		t.Fatal("the relayed inflow survived the prune")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatal(err)
	}
}

// TestSeedCommitCheckRefuses drives the extension's check directly: an
// allocation extended past a host's CPU is refused with
// ReasonValidationFailed, as Validate refuses it, and nothing is passed on.
func TestSeedCommitCheckRefuses(t *testing.T) {
	sys, ab, _ := chainSystem()
	heavy := sys.AddOperator(sys.Operators[sys.ProducersOf(ab)[0]].Inputs, 1, sys.Hosts[0].CPU, "heavy")
	p := NewPlanner(sys, DefaultConfig())
	if res, err := p.Submit(context.Background(), ab); err != nil || !res.Admitted {
		t.Fatalf("submit: %+v, %v", res, err)
	}
	ext := dsps.Extension{Ops: []dsps.Placement{{Host: 0, Op: heavy.ID}}}
	next := p.Assignment().Clone()
	next.AddOp(ext.Ops[0])
	if next.Validate(sys) == nil {
		t.Fatal("the over-budget placement validates; the case tests nothing")
	}
	var res Result
	got, err := p.validated(next, &ext, &res)
	if got != nil || err == nil || res.Reason != plan.ReasonValidationFailed {
		t.Fatalf("the check passed %v on with error %v and reason %v", got != nil, err, res.Reason)
	}
	if errors.Unwrap(err) == nil {
		t.Fatalf("the refusal %v does not wrap the validator's error", err)
	}
}
