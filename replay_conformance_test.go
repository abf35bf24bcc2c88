// Durable-service conformance suite: every planner implements StatePorter,
// so one table-driven test drives all five through a journaling admission
// service with a randomized submit/remove/repair schedule and asserts that
// a restart from the journal rebuilds byte-identical state with zero
// planning solves. A second suite kills the journal at every registered
// crash point mid-run and checks recovery lands on the exact acknowledged
// state (or the one in-flight op past it, when the crash hit after the
// record became durable). Run under -race in CI.
package sqpr_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"sqpr"
	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

// driftEvent is the cost event of the i-th step of a schedule: an operator
// the service has placed (any operator when it places none) measured at
// 1.5 times its current cost.
func driftEvent(svc *sqpr.Service, sys *sqpr.System, i int) sqpr.Event {
	op := sqpr.OperatorID(i % len(sys.Operators))
	if ops := svc.Assignment().Ops; len(ops) > 0 {
		op = ops[i%len(ops)].Op
	}
	return sqpr.CostDrift(op, 1.5*sys.Operators[op].Cost)
}

// driveReplaySchedule applies a deterministic pseudo-random mix of
// submits, removes, host repairs and cost repairs through the service.
// Every applied operation is acknowledged (and hence journaled) before the
// next starts.
func driveReplaySchedule(t *testing.T, svc *sqpr.Service, sys *sqpr.System, queries []sqpr.StreamID, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	hostDown := make([]bool, sys.NumHosts())
	for i := 0; i < 3*len(queries); i++ {
		switch rng.Intn(7) {
		case 6: // an operator drifts to a new cost
			ev := driftEvent(svc, sys, i)
			if _, err := svc.Repair(ctx, []sqpr.Event{ev}); err != nil {
				t.Fatalf("op %d: Repair(%v): %v", i, ev, err)
			}
		case 0: // remove a random admitted query
			for _, q := range queries {
				if svc.Admitted(q) && rng.Intn(2) == 0 {
					if err := svc.Remove(q); err != nil {
						t.Fatalf("op %d: Remove(%d): %v", i, q, err)
					}
					break
				}
			}
		case 1: // flip one host's availability through Repair
			h := rng.Intn(len(hostDown))
			ev := sqpr.FailHost(sqpr.HostID(h))
			if hostDown[h] {
				ev = sqpr.RecoverHost(sqpr.HostID(h))
			}
			if _, err := svc.Repair(ctx, []sqpr.Event{ev}); err != nil {
				t.Fatalf("op %d: Repair(%v): %v", i, ev, err)
			}
			hostDown[h] = !hostDown[h]
		default: // submit the next query (duplicates exercise reuse)
			q := queries[rng.Intn(len(queries))]
			if _, err := svc.Submit(ctx, q); err != nil {
				t.Fatalf("op %d: Submit(%d): %v", i, q, err)
			}
		}
	}
	// End with every host back up so the final state is typical.
	var evs []sqpr.Event
	for h, down := range hostDown {
		if down {
			evs = append(evs, sqpr.RecoverHost(sqpr.HostID(h)))
		}
	}
	if len(evs) > 0 {
		if _, err := svc.Repair(ctx, evs); err != nil {
			t.Fatalf("final recovery repair: %v", err)
		}
	}
	// With capacity restored, resubmit everything once so the final state
	// carries live admissions for the equivalence check to bite on.
	for _, q := range queries {
		if _, err := svc.Submit(ctx, q); err != nil {
			t.Fatalf("final submit %d: %v", q, err)
		}
	}
}

// TestReplayEquivalenceAcrossPlanners is the all-planner replay test: after
// a randomized schedule through a durable service, a fresh planner opened
// over the same journal must export byte-identical state — admitted set,
// full assignment, host availability, operator costs and planner-private
// aux — without a single planning call, and run on a system with the
// drifted costs.
func TestReplayEquivalenceAcrossPlanners(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			fs := walfault.New()
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			svc, rs, err := sqpr.OpenService(p, sqpr.ServiceConfig{SnapshotEvery: 6}, fs,
				sqpr.WALOptions{SegmentBytes: 2048})
			if err != nil {
				t.Fatalf("OpenService: %v", err)
			}
			if rs.Records != 0 || rs.UsedSnapshot {
				t.Fatalf("fresh journal recovered state: %+v", rs)
			}
			driveReplaySchedule(t, svc, sys, queries, 42)
			svc.Close()
			want := p.(sqpr.StatePorter).ExportState()
			if len(want.Admitted) == 0 || len(want.Costs) == 0 {
				t.Fatalf("schedule left %d admitted and %d costs drifted; test would be vacuous", len(want.Admitted), len(want.Costs))
			}

			sys2, _ := conformanceEnv()
			p2 := tc.make(sys2)
			svc2, rs2, err := sqpr.OpenService(p2, sqpr.ServiceConfig{}, fs, sqpr.WALOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer svc2.Close()
			if rs2.Records == 0 && !rs2.UsedSnapshot {
				t.Fatal("reopen replayed nothing")
			}
			got := p2.(sqpr.StatePorter).ExportState()
			if !got.Equal(want) {
				t.Fatalf("replayed state diverged from live state\n got: %+v\nwant: %+v", got, want)
			}
			if solves := p2.Stats().Submissions; solves != 0 {
				t.Fatalf("recovery ran %d planning calls, want 0", solves)
			}
			for o := range sys.Operators {
				if got, want := sys2.Operators[o].Cost, sys.Operators[o].Cost; got != want {
					t.Fatalf("operator %d costs %v after recovery, %v before", o, got, want)
				}
			}
			if rs2.Admitted != len(want.Admitted) {
				t.Fatalf("recovery reports %d admitted, want %d", rs2.Admitted, len(want.Admitted))
			}
		})
	}
}

// TestServiceCrashRecoveryAtEveryPoint is the acceptance test for the
// durability tentpole: for every registered WAL crash point and every
// planner, the journal dies mid-run (with a torn unsynced tail left
// behind), and the restarted service must recover to exactly the last
// acknowledged state — or that state plus the single in-flight operation,
// when the crash struck after the record reached (or tore into) the disk
// image — operator costs included, with zero planning solves, and keep
// working afterwards.
func TestServiceCrashRecoveryAtEveryPoint(t *testing.T) {
	for _, point := range wal.CrashPoints() {
		t.Run(point, func(t *testing.T) {
			for _, tc := range conformanceCases() {
				t.Run(tc.name, func(t *testing.T) { crashAndRecover(t, point, tc.make) })
			}
		})
	}
}

// crashAndRecover is one case of TestServiceCrashRecoveryAtEveryPoint.
func crashAndRecover(t *testing.T, point string, newPlanner func(*sqpr.System) sqpr.QueryPlanner) {
	ctx := context.Background()
	fs := walfault.New()
	fs.SetTear(7)
	sys, queries := conformanceEnv()
	p := newPlanner(sys)
	porter := p.(sqpr.StatePorter)
	// Tiny segments and a 2-record snapshot interval so every write path —
	// rotation, append, snapshot, compaction — runs within a few operations
	// and the armed crash point fires early.
	scfg := sqpr.ServiceConfig{SnapshotEvery: 2}
	svc, _, err := sqpr.OpenService(p, scfg, fs, sqpr.WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}

	// A cost event, then two submits or removes, and again, until the
	// journal dies. The crash is armed once the first cost event is
	// durable, so every journal it leaves holds one. After each
	// acknowledged op the exported state is the new durable baseline; the
	// failed op's state is the one-past-acked bound.
	acked := porter.ExportState()
	var opErr error
	for i := 0; i < 200 && opErr == nil; i++ {
		if i == 1 {
			fs.CrashAt(point, 1)
		}
		q := queries[i%len(queries)]
		switch {
		case i%3 == 0:
			_, opErr = svc.Repair(ctx, []sqpr.Event{driftEvent(svc, sys, i)})
		case svc.Admitted(q):
			opErr = svc.Remove(q)
		default:
			_, opErr = svc.Submit(ctx, q)
		}
		if opErr == nil {
			acked = porter.ExportState()
		}
	}
	if opErr == nil {
		t.Fatalf("crash point %s never fired (crashed=%v)", point, fs.Crashed())
	}
	if !errors.Is(opErr, sqpr.ErrWALFailed) {
		t.Fatalf("op failed with %v, want ErrWALFailed", opErr)
	}
	next := porter.ExportState()
	img := fs.Reopen()
	svc.Close()

	sys2, _ := conformanceEnv()
	p2 := newPlanner(sys2)
	svc2, rs, err := sqpr.OpenService(p2, scfg, img, sqpr.WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("recovery after crash at %s: %v", point, err)
	}
	got := p2.(sqpr.StatePorter).ExportState()
	if !got.Equal(acked) && !got.Equal(next) {
		svc2.Close()
		t.Fatalf("recovered state matches neither the acked state (%d admitted, %d costs) nor acked+1 (%d admitted, %d costs); got %d admitted, %d costs, records=%d torn=%d",
			len(acked.Admitted), len(acked.Costs), len(next.Admitted), len(next.Costs), len(got.Admitted), len(got.Costs), rs.Records, rs.TailTruncated)
	}
	for _, c := range got.Costs {
		if sys2.Operators[c.Op].Cost != c.Cost {
			svc2.Close()
			t.Fatalf("recovered state costs operator %d %v, its system %v", c.Op, c.Cost, sys2.Operators[c.Op].Cost)
		}
	}
	if solves := p2.Stats().Submissions; solves != 0 {
		svc2.Close()
		t.Fatalf("recovery ran %d planning calls, want 0", solves)
	}

	// The recovered service must accept new work and journal it.
	q := queries[0]
	var err2 error
	if svc2.Admitted(q) {
		err2 = svc2.Remove(q)
	} else {
		_, err2 = svc2.Submit(ctx, q)
	}
	if err2 != nil {
		svc2.Close()
		t.Fatalf("recovered service rejected follow-up op: %v", err2)
	}
	after := p2.(sqpr.StatePorter).ExportState()
	img2 := img.Reopen()
	svc2.Close()

	sys3, _ := conformanceEnv()
	p3 := newPlanner(sys3)
	svc3, _, err := sqpr.OpenService(p3, scfg, img2, sqpr.WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer svc3.Close()
	if !p3.(sqpr.StatePorter).ExportState().Equal(after) {
		t.Fatal("follow-up op on the recovered service did not persist")
	}
}

// TestImportStateRejectsOutOfRangeIDs: a snapshot or replayed delta may name
// hosts, streams and operators the system does not have, and an in-process
// state may hold lists out of order or repeated. Every planner must refuse
// such a state with an error — neither importing it silently nor panicking
// on it later — and stay as it was.
func TestImportStateRejectsOutOfRangeIDs(t *testing.T) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys, _ := conformanceEnv()
			p := tc.make(sys)
			porter := p.(sqpr.StatePorter)
			hosts, streams, ops := sqpr.HostID(sys.NumHosts()), sqpr.StreamID(len(sys.Streams)), sqpr.OperatorID(len(sys.Operators))
			for name, corrupt := range map[string]func(a *sqpr.Assignment){
				"flow from a host past the end": func(a *sqpr.Assignment) { a.AddFlow(sqpr.Flow{From: hosts + 3, To: 0, Stream: 0}) },
				"flow to a negative host":       func(a *sqpr.Assignment) { a.AddFlow(sqpr.Flow{From: 0, To: -1, Stream: 0}) },
				"flow of an unknown stream":     func(a *sqpr.Assignment) { a.AddFlow(sqpr.Flow{From: 0, To: 1, Stream: streams}) },
				"provide of an unknown stream":  func(a *sqpr.Assignment) { a.SetProvide(streams+5, 0) },
				"provide at an unknown host":    func(a *sqpr.Assignment) { a.SetProvide(0, hosts) },
				"placement of an unknown op":    func(a *sqpr.Assignment) { a.AddOp(sqpr.Placement{Host: 0, Op: ops + 9}) },
				"placement on an unknown host":  func(a *sqpr.Assignment) { a.AddOp(sqpr.Placement{Host: hosts, Op: 0}) },
				// In range, but written around the methods that keep order.
				"flows out of order": func(a *sqpr.Assignment) {
					a.Flows = []sqpr.Flow{{From: 1, To: 0, Stream: 0}, {From: 0, To: 1, Stream: 0}}
				},
				"placement listed twice": func(a *sqpr.Assignment) { a.Ops = []sqpr.Placement{{Host: 0, Op: 0}, {Host: 0, Op: 0}} },
			} {
				st := porter.ExportState()
				corrupt(st.Assignment)
				if err := porter.ImportState(st); err == nil {
					t.Errorf("%s: imported without error", name)
				}
				if got := porter.ExportState(); !got.Equal(sqpr.PlannerState{Assignment: sqpr.NewAssignment(), Admitted: []sqpr.StreamID{}, Hosts: st.Hosts, Aux: st.Aux}) {
					t.Errorf("%s: a refused import changed the planner: %+v", name, got)
				}
			}
		})
	}
}
