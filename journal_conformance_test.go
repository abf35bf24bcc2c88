// Journal conformance: every planner records what each call changes
// (plan.DeltaRecorder), and the durable service journals that record
// instead of exporting and diffing the whole state. These tests hold the
// record to the export diff it replaces: after every call of a fuzzed
// schedule, on the journal's bytes with snapshots, and on how often the
// service exports the whole state.
package sqpr_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqpr"
	"sqpr/internal/invariant"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// journalStep applies the call byte b picks to p: a submit, a remove, or a
// Repair of one event of each kind — fail, recover, drain, query drift and
// cost drift. Calls that fail as calls (an invalid remove) are fine: the
// delta of a call that changed nothing is empty all the same.
func journalStep(ctx context.Context, p sqpr.QueryPlanner, sys *sqpr.System, queries []sqpr.StreamID, b, arg byte) {
	q := queries[int(arg)%len(queries)]
	h := sqpr.HostID(int(arg) % sys.NumHosts())
	var ev sqpr.Event
	switch b % 8 {
	case 0, 1, 2:
		_, _ = p.Submit(ctx, q)
		return
	case 3:
		_ = p.Remove(q)
		return
	case 4:
		ev = sqpr.FailHost(h)
	case 5:
		ev = sqpr.RecoverHost(h)
	case 6:
		if arg%2 == 0 {
			ev = sqpr.DrainHost(h)
		} else {
			ev = sqpr.DriftQuery(q)
		}
	case 7:
		op := sqpr.OperatorID(int(arg) % len(sys.Operators))
		if ops := p.Assignment().Ops; len(ops) > 0 {
			op = ops[int(arg)%len(ops)].Op
		}
		c := sys.Operators[op].Cost * (0.5 + float64(arg%4)/2)
		ev = sqpr.CostDrift(op, c)
	}
	_, _ = p.Repair(ctx, []sqpr.Event{ev})
}

// journalPlanners is conformanceCases with a solve budget small enough to
// fuzz with; the record does not depend on what the solver finds.
func journalPlanners() []conformanceCase {
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 20 * time.Millisecond
	cases := conformanceCases()
	cases[0].make = func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewPlanner(sys, cfg) }
	cases[4].make = func(sys *sqpr.System) sqpr.QueryPlanner { return sqpr.NewHierarchicalPlanner(sys, cfg, 2) }
	return cases
}

// FuzzJournalDelta drives all five planners through submits, removes and
// every Repair event kind in the order the bytes pick. After each call the
// recorded delta must encode to the bytes of the Diff between the exports
// before and after it.
func FuzzJournalDelta(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 2, 7, 3, 1, 4, 2, 0, 6, 5, 2, 1, 9, 6, 1, 7, 4, 0, 0, 3, 3, 2, 8})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 4, 1, 0, 6, 7, 0, 5, 1, 3, 2, 6, 2, 0, 7, 7, 3})
	f.Add([]byte{1, 0, 1, 1, 2, 2, 7, 1, 7, 2, 4, 0, 4, 3, 5, 0, 5, 3, 6, 1, 6, 0, 3, 1, 1, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		ctx := context.Background()
		for _, tc := range journalPlanners() {
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			rec, porter := p.(plan.DeltaRecorder), p.(sqpr.StatePorter)
			rec.TakeDelta()
			prev := porter.ExportState()
			for i := 0; i+1 < len(script); i += 2 {
				journalStep(ctx, p, sys, queries, script[i], script[i+1])
				cur := porter.ExportState()
				got, err := json.Marshal(rec.TakeDelta())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(plan.Diff(prev, cur))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, step %d (call %d): recorded delta\n%s\nexport diff\n%s", tc.name, i/2, script[i]%8, got, want)
				}
				prev = cur
			}
		}
	})
}

// hiddenRecorder is a planner behind a wrapper that forwards QueryPlanner
// and StatePorter only, so the service cannot see its change record and
// journals by export and diff.
type hiddenRecorder struct {
	sqpr.QueryPlanner
	sqpr.StatePorter
}

// countingPlanner counts the exports the service asks of a planner whose
// change record it still sees: it embeds the planner's record.
type countingPlanner struct {
	sqpr.QueryPlanner
	plan.DeltaRecorder
	porter  sqpr.StatePorter
	exports int
}

func (c *countingPlanner) ExportState() sqpr.PlannerState {
	c.exports++
	return c.porter.ExportState()
}

func (c *countingPlanner) ImportState(s sqpr.PlannerState) error { return c.porter.ImportState(s) }

// journalScript drives one seeded schedule through a durable service over
// dir with a snapshot every 4 records, and returns the journal's files.
func journalScript(t *testing.T, p sqpr.QueryPlanner, sys *sqpr.System, queries []sqpr.StreamID, dir string) map[string][]byte {
	t.Helper()
	fs, err := wal.DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, _, err := sqpr.OpenService(p, sqpr.ServiceConfig{SnapshotEvery: 4}, fs, sqpr.WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	driveReplaySchedule(t, svc, sys, queries, 7)
	svc.Close()
	files := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestJournalBytesMatchExportDiff journals one seeded schedule twice per
// planner: once through the planner's change record, once behind a
// wrapper that hides it, so the service exports and diffs. The two journal
// directories, snapshots included, must be byte-identical.
func TestJournalBytesMatchExportDiff(t *testing.T) {
	for _, tc := range journalPlanners() {
		t.Run(tc.name, func(t *testing.T) {
			sys, queries := conformanceEnv()
			p := tc.make(sys)
			if _, ok := p.(plan.DeltaRecorder); !ok {
				t.Fatalf("%T records no deltas", p)
			}
			recorded := journalScript(t, p, sys, queries, t.TempDir())

			sys2, _ := conformanceEnv()
			p2 := tc.make(sys2)
			diffed := journalScript(t, hiddenRecorder{p2, p2.(sqpr.StatePorter)}, sys2, queries, t.TempDir())

			snaps := 0
			for name := range recorded {
				if filepath.Ext(name) == ".snap" {
					snaps++
				}
			}
			if len(recorded) < 2 || snaps == 0 {
				t.Fatalf("the schedule left %d journal files, %d of them snapshots: too little to compare", len(recorded), snaps)
			}
			if len(recorded) != len(diffed) {
				t.Fatalf("journal files: %d recorded, %d diffed", len(recorded), len(diffed))
			}
			for name, data := range recorded {
				if !bytes.Equal(data, diffed[name]) {
					t.Errorf("journal file %s differs between the recorded and the diffed journal", name)
				}
			}
		})
	}
}

// TestServiceExportsOnlyForSnapshots: a service over a planner with a
// change record exports the whole state once to open and then only for
// snapshots — and, in checked builds, once per request, for the oracle
// that compares each delta with the export diff.
func TestServiceExportsOnlyForSnapshots(t *testing.T) {
	sys, queries := conformanceEnv()
	inner := journalPlanners()[0].make(sys)
	p := &countingPlanner{QueryPlanner: inner, DeltaRecorder: inner.(plan.DeltaRecorder), porter: inner.(sqpr.StatePorter)}
	fs, err := wal.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const every = 3
	svc, _, err := sqpr.OpenService(p, sqpr.ServiceConfig{SnapshotEvery: every}, fs, sqpr.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opened := p.exports
	ctx := context.Background()
	for _, q := range queries {
		if _, err := svc.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		if !svc.Admitted(q) {
			continue
		}
		if err := svc.Remove(q); err != nil {
			t.Fatal(err)
		}
	}
	st, requests := svc.WALStats(), svc.ServiceStats().Requests
	svc.Close()
	if st.Appends < 2*every {
		t.Fatalf("the script journaled %d records: too few to cross a snapshot", st.Appends)
	}
	want := st.Snapshots
	if invariant.Enabled {
		// The oracle's export serves the snapshots too.
		want = requests
	}
	if got := p.exports - opened; got != want {
		t.Fatalf("the service exported the state %d times over %d requests and %d snapshots, want %d", got, requests, st.Snapshots, want)
	}
}
