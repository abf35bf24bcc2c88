package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// churnSystem builds three hosts with base streams on host 0 and two
// requested joins, leaving room to re-place either query on any host.
func churnSystem(t *testing.T) (*dsps.System, []dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 200, InBW: 200},
		{ID: 1, CPU: 10, OutBW: 200, InBW: 200},
		{ID: 2, CPU: 10, OutBW: 200, InBW: 200},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	sys.PlaceBase(0, c)
	q1 := sys.AddOperator([]dsps.StreamID{a, b}, 1, 2, "a⋈b").Output
	q2 := sys.AddOperator([]dsps.StreamID{b, c}, 1, 2, "b⋈c").Output
	sys.SetRequested(q1, true)
	sys.SetRequested(q2, true)
	if err := sys.Validate(); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	return sys, []dsps.StreamID{q1, q2}
}

func submitAll(t *testing.T, p *Planner, qs []dsps.StreamID) {
	t.Helper()
	for _, q := range qs {
		res, err := p.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
		if !res.Admitted {
			t.Fatalf("query %d not admitted: %+v", q, res)
		}
	}
}

// hostsUsed collects the hosts carrying any operator or provide.
func hostsUsed(a *dsps.Assignment) map[dsps.HostID]bool {
	used := map[dsps.HostID]bool{}
	for _, pl := range a.Ops {
		used[pl.Host] = true
	}
	for _, p := range a.Provides {
		used[p.Host] = true
	}
	return used
}

func TestRepairSurvivesHostFailure(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	// Fail every host that carries anything; repair must re-place both
	// queries on the survivors.
	used := hostsUsed(p.Assignment())
	var events []plan.Event
	for h := range used {
		if h != 0 { // host 0 holds the base streams; keep it alive
			events = append(events, plan.FailHost(h))
		}
	}
	if len(events) == 0 {
		// Everything sits on host 0 already; fail a host anyway to check
		// the no-affected-queries path, then force a failure of host 0's
		// neighbours is moot — instead drain host 0 to force migration.
		events = append(events, plan.FailHost(1))
	}
	rr, err := p.Repair(context.Background(), events, plan.WithTimeout(testConfig().SolveTimeout))
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("post-repair plan infeasible: %v", err)
	}
	if p.AdmittedCount() != len(qs) {
		t.Fatalf("admitted %d after repair, want %d (result %+v)", p.AdmittedCount(), len(qs), rr)
	}
	for _, ev := range events {
		if hostsUsed(p.Assignment())[ev.Host] {
			t.Fatalf("repaired plan still uses failed host %d", ev.Host)
		}
	}
}

func TestRepairFailureDropsOnlyWhenInfeasible(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	// Fail everything except host 1: the base streams on host 0 are gone,
	// so no query can survive — repair must drop them all and leave a
	// clean, validating state.
	events := []plan.Event{plan.FailHost(0), plan.FailHost(2)}
	rr, err := p.Repair(context.Background(), events)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if p.AdmittedCount() != 0 {
		t.Fatalf("admitted %d after catastrophic failure, want 0", p.AdmittedCount())
	}
	if len(rr.Dropped) == 0 {
		t.Fatalf("no dropped queries reported: %+v", rr)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("post-repair state infeasible: %v", err)
	}
	if len(p.Assignment().Ops) != 0 || len(p.Assignment().Provides) != 0 {
		t.Fatalf("state not cleaned after dropping all queries: %+v", p.Assignment())
	}

	// Recovery brings the hosts back; the dropped queries resubmit fine.
	if _, err := p.Repair(context.Background(), []plan.Event{plan.RecoverHost(0), plan.RecoverHost(2)}); err != nil {
		t.Fatalf("recovery repair: %v", err)
	}
	submitAll(t, p, qs)
}

func TestRepairDrainEvacuatesBestEffort(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	used := hostsUsed(p.Assignment())
	var drained dsps.HostID = -1
	for h := range used {
		if h != 0 {
			drained = h
			break
		}
	}
	if drained < 0 {
		t.Skip("all allocations landed on the base host; nothing to drain")
	}
	rr, err := p.Repair(context.Background(), []plan.Event{plan.DrainHost(drained)})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	// Draining never drops admissions.
	if p.AdmittedCount() != len(qs) {
		t.Fatalf("admitted %d after drain, want %d (%+v)", p.AdmittedCount(), len(qs), rr)
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("post-drain plan infeasible: %v", err)
	}
	// With identical spare hosts available, evacuation is feasible, so the
	// drained host must be empty afterwards.
	if hostsUsed(p.Assignment())[drained] {
		t.Fatalf("drained host %d still carries load: %+v", drained, p.Assignment())
	}
}

// TestRepairLargeFailureChunkStagesSeed fills the S15 substrate of the
// seed-close walks with its whole population, then fails each host in turn
// until a repair chunk's pinned seed cannot re-place a producible query. On
// a model of at least largeModelVars variables that seed decides: the
// chunk stages it and searches no node, and the query comes back in
// Dropped. (Drain chunks still search: TestRepairDrainEvacuatesBestEffort.)
func TestRepairLargeFailureChunkStagesSeed(t *testing.T) {
	w := newChurnWalk()
	ctx := context.Background()
	for _, q := range w.queries {
		if _, err := w.p.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	for h := range w.sys.Hosts {
		p := NewPlanner(w.sys, w.cfg)
		if err := p.ImportState(w.p.ExportState()); err != nil {
			t.Fatal(err)
		}
		before := p.Stats()
		rr, err := p.Repair(ctx, []plan.Event{plan.FailHost(dsps.HostID(h))})
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		producible := p.producibleCheck()
		var lost []dsps.StreamID // dropped by a chunk, not by the screen
		for _, q := range rr.Dropped {
			if producible(q) {
				lost = append(lost, q)
			}
		}
		w.sys.SetHostState(dsps.HostID(h), dsps.HostUp)
		if len(lost) == 0 {
			continue
		}
		chunks := st.Submissions - before.Submissions
		if rr.Nodes != 0 || st.TotalNodes != before.TotalNodes || st.SeedClosed-before.SeedClosed != chunks {
			t.Fatalf("host %d: %d of %d chunks decided by their seeds, %d nodes searched; want every chunk seed-decided: %+v",
				h, st.SeedClosed-before.SeedClosed, chunks, rr.Nodes, rr)
		}
		if st.Rejections == before.Rejections {
			t.Fatalf("host %d: queries %v dropped, yet no chunk recorded a rejection", h, lost)
		}
		p.beginCall(plan.SubmitConfig{})
		for _, q := range lost {
			if n := p.newBuilder([]dsps.StreamID{q}, true).numVars(); n < largeModelVars {
				t.Fatalf("host %d: query %d's pinned model lays out %d variables, want at least %d", h, q, n, largeModelVars)
			}
		}
		t.Logf("host %d: %d chunks, none searched; queries %v not re-placed by their seeds", h, chunks, lost)
		return
	}
	t.Fatal("no host failure left a producible query its seed could not re-place: the test no longer exercises the rule")
}

func TestRepairNoEventsNoAffected(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)
	beforeOps := len(p.Assignment().Ops)

	// Failing an unused host affects nothing and changes nothing.
	var unused dsps.HostID = -1
	used := hostsUsed(p.Assignment())
	for h := 0; h < sys.NumHosts(); h++ {
		if !used[dsps.HostID(h)] && !sys.IsBaseAt(dsps.HostID(h), 0) {
			unused = dsps.HostID(h)
			break
		}
	}
	if unused < 0 {
		t.Skip("no unused host in this layout")
	}
	rr, err := p.Repair(context.Background(), []plan.Event{plan.FailHost(unused)})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(rr.Affected) != 0 || rr.Migrated != 0 {
		t.Fatalf("unexpected repair work for unused host: %+v", rr)
	}
	if len(p.Assignment().Ops) != beforeOps {
		t.Fatalf("ops changed: %d -> %d", beforeOps, len(p.Assignment().Ops))
	}
	if p.AdmittedCount() != len(qs) {
		t.Fatalf("admitted count changed to %d", p.AdmittedCount())
	}
}

func TestRepairDriftReplans(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)

	// The monitor measures qs[0]'s operators at three times their modelled
	// cost: the query must stay admitted on a valid plan under the new costs.
	var events []plan.Event
	for _, op := range sys.Operators {
		if op.Output == qs[0] {
			events = append(events, plan.CostDrift(op.ID, 3*op.Cost))
		}
	}
	rr, err := p.Repair(context.Background(), events)
	if err != nil {
		t.Fatalf("Repair(cost): %v", err)
	}
	for _, ev := range events {
		if got := sys.Operators[ev.Op].Cost; got != ev.Cost {
			t.Errorf("operator %d costs %v after the repair, want %v", ev.Op, got, ev.Cost)
		}
	}
	if !slices.Contains(rr.Affected, qs[0]) {
		t.Fatalf("cost event did not affect the query running the operator: %+v", rr)
	}
	if !p.Admitted(qs[0]) {
		t.Fatal("drifted query lost its admission despite fitting capacity")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("post-drift-repair state infeasible: %v", err)
	}

	// Drift events for unadmitted queries are ignored.
	if err := p.Remove(qs[1]); err != nil {
		t.Fatal(err)
	}
	rr, err = p.Repair(context.Background(), []plan.Event{plan.DriftQuery(qs[1])})
	if err != nil {
		t.Fatalf("Repair(drift unadmitted): %v", err)
	}
	if len(rr.Affected) != 0 {
		t.Fatalf("drift of unadmitted query affected %v", rr.Affected)
	}
}

// TestRepairHonoursCancelledContext: a repair whose ctx is already
// cancelled still commits the event, re-plans nothing and reports the
// cancellation; the chunk loop must hand the caller's ctx to every chunk.
func TestRepairHonoursCancelledContext(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr, err := p.Repair(ctx, []plan.Event{plan.DriftQuery(qs[0])})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Repair with a cancelled ctx: err = %v, want context.Canceled (result %+v)", err, rr)
	}
	if len(rr.Affected) == 0 {
		t.Fatal("the drift event affected nothing, so no chunk saw the ctx")
	}
	if err := p.Assignment().Validate(sys); err != nil {
		t.Fatalf("cancelled repair left an infeasible state: %v", err)
	}
}

func TestRepairRejectsBadEvent(t *testing.T) {
	sys, qs := churnSystem(t)
	p := NewPlanner(sys, testConfig())
	submitAll(t, p, qs)
	if _, err := p.Repair(context.Background(), []plan.Event{plan.FailHost(99)}); err == nil {
		t.Fatal("Repair accepted an out-of-range host event")
	}
	if p.AdmittedCount() != len(qs) {
		t.Fatalf("bad event corrupted state: admitted %d", p.AdmittedCount())
	}
}
