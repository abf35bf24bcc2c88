package plan_test

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

// durableFake is a minimal stateful QueryPlanner + StatePorter: it admits
// any requested stream onto the first usable host and reacts to churn by
// stripping failed placements. It lets the durable-service tests exercise
// journaling, wedging and recovery without MILP solves
// (real-planner replay equivalence is covered by the repo-level
// conformance tests).
type durableFake struct {
	mu       sync.Mutex
	sys      *dsps.System
	state    *dsps.Assignment
	admitted map[dsps.StreamID]bool
	stats    plan.Stats
}

func newDurableFake(nHosts, nStreams int) *durableFake {
	hosts := make([]dsps.Host, nHosts)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 100, OutBW: 100, InBW: 100}
	}
	sys := dsps.NewSystem(hosts, 100)
	for i := 0; i < nStreams; i++ {
		s := sys.AddStream(1, dsps.NoOperator, "")
		sys.SetRequested(s, true)
		sys.PlaceBase(dsps.HostID(i%nHosts), s)
	}
	return &durableFake{
		sys:      sys,
		state:    dsps.NewAssignment(),
		admitted: make(map[dsps.StreamID]bool),
	}
}

func (f *durableFake) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Submissions++
	cfg := plan.Apply(opts)
	res := plan.Result{Admitted: true}
	for _, s := range cfg.Queries(q) {
		if err := plan.CheckStream(f.sys, s); err != nil {
			return plan.Result{}, err
		}
		if f.admitted[s] {
			res.AlreadyAdmitted = true
			continue
		}
		placed := false
		for h := range f.sys.Hosts {
			if f.sys.HostPlaceable(dsps.HostID(h)) {
				f.state.SetProvide(s, dsps.HostID(h))
				f.admitted[s] = true
				placed = true
				break
			}
		}
		if !placed {
			res.Admitted = false
			res.Reason = plan.ReasonResourceExhausted
		}
	}
	return res, nil
}

func (f *durableFake) Remove(q dsps.StreamID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.admitted[q] {
		return plan.ErrNotAdmitted
	}
	delete(f.admitted, q)
	f.state.DeleteProvide(q)
	return nil
}

func (f *durableFake) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rr plan.RepairResult
	if err := plan.ApplyEvents(f.sys, events); err != nil {
		return rr, err
	}
	f.state.StripFailed(f.sys)
	for q := range f.admitted {
		if _, ok := f.state.Provider(q); !ok {
			delete(f.admitted, q)
			rr.Dropped = append(rr.Dropped, q)
		}
	}
	rr.Admitted = true
	return rr, nil
}

func (f *durableFake) Assignment() *dsps.Assignment { return f.state }

func (f *durableFake) Admitted(q dsps.StreamID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted[q]
}

func (f *durableFake) AdmittedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.admitted)
}

func (f *durableFake) Stats() plan.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *durableFake) ExportState() plan.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return plan.ExportedState(f.sys, f.state, slices.Sorted(maps.Keys(f.admitted)))
}

func (f *durableFake) ImportState(s plan.State) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := plan.CheckState(f.sys, s); err != nil {
		return err
	}
	plan.ApplySystemState(f.sys, s)
	f.state = s.Assignment.Clone()
	f.admitted = make(map[dsps.StreamID]bool, len(s.Admitted))
	for _, q := range s.Admitted {
		f.admitted[q] = true
	}
	return nil
}

func TestDurableServiceJournalsAndRecovers(t *testing.T) {
	fs := walfault.New()
	f := newDurableFake(3, 6)
	s, rs, err := plan.OpenService(f, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	if rs.Records != 0 || rs.UsedSnapshot {
		t.Fatalf("fresh journal recovered %+v", rs)
	}
	ctx := context.Background()
	for q := 0; q < 4; q++ {
		if _, err := s.Submit(ctx, dsps.StreamID(q)); err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
	}
	if err := s.Remove(dsps.StreamID(1)); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := s.Repair(ctx, []plan.Event{plan.FailHost(2)}); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	s.Close()
	want := f.ExportState()

	// Restart: identical fresh planner, same journal directory.
	f2 := newDurableFake(3, 6)
	s2, rs2, err := plan.OpenService(f2, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rs2.Records == 0 {
		t.Fatal("reopen replayed no records")
	}
	if got := f2.ExportState(); !got.Equal(want) {
		t.Fatalf("recovered state diverged:\n got %+v\nwant %+v", got, want)
	}
	if f2.Stats().Submissions != 0 {
		t.Fatalf("recovery ran %d planner submissions, want 0", f2.Stats().Submissions)
	}
	if rs2.Admitted != f.AdmittedCount() {
		t.Fatalf("recovered %d admitted, want %d", rs2.Admitted, f.AdmittedCount())
	}
	// The recovered service keeps journaling: one more op survives another
	// restart.
	if _, err := s2.Submit(ctx, dsps.StreamID(5)); err != nil {
		t.Fatalf("Submit after recovery: %v", err)
	}
	s2.Close()
	f3 := newDurableFake(3, 6)
	s3, _, err := plan.OpenService(f3, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer s3.Close()
	if got := f3.ExportState(); !got.Equal(f2.ExportState()) {
		t.Fatal("state after second recovery diverged")
	}
}

func TestDurableServiceSnapshotCompaction(t *testing.T) {
	fs := walfault.New()
	f := newDurableFake(2, 8)
	s, _, err := plan.OpenService(f, plan.ServiceConfig{SnapshotEvery: 2}, fs,
		wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	ctx := context.Background()
	for q := 0; q < 8; q++ {
		if _, err := s.Submit(ctx, dsps.StreamID(q)); err != nil {
			t.Fatalf("Submit(%d): %v", q, err)
		}
	}
	ws := s.WALStats()
	if ws.Snapshots == 0 {
		t.Fatalf("no snapshots after 8 journaled submits with SnapshotEvery=2: %+v", ws)
	}
	s.Close()
	want := f.ExportState()

	f2 := newDurableFake(2, 8)
	s2, rs, err := plan.OpenService(f2, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !rs.UsedSnapshot {
		t.Fatal("recovery ignored the snapshot")
	}
	if got := f2.ExportState(); !got.Equal(want) {
		t.Fatal("snapshot recovery diverged from live state")
	}
}

func TestDurableServiceWedgesOnJournalFailure(t *testing.T) {
	fs := walfault.New()
	f := newDurableFake(2, 4)
	s, _, err := plan.OpenService(f, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Submit(ctx, dsps.StreamID(0)); err != nil {
		t.Fatalf("Submit(0): %v", err)
	}
	// The next journal append dies mid-write: the outcome must NOT be
	// acknowledged, and the service must wedge.
	fs.CrashAt(wal.CrashAppendMidFrame, 1)
	if _, err := s.Submit(ctx, dsps.StreamID(1)); !errors.Is(err, plan.ErrWALFailed) {
		t.Fatalf("submit across journal failure: %v, want ErrWALFailed", err)
	}
	if _, err := s.Submit(ctx, dsps.StreamID(2)); !errors.Is(err, plan.ErrWALFailed) {
		t.Fatalf("submit on wedged service: %v, want ErrWALFailed", err)
	}
	if err := s.Remove(dsps.StreamID(0)); !errors.Is(err, plan.ErrWALFailed) {
		t.Fatalf("remove on wedged service: %v, want ErrWALFailed", err)
	}
	// Reads still serve.
	if !s.Admitted(dsps.StreamID(0)) {
		t.Fatal("read path broken on wedged service")
	}

	// Restart from the crash image: only the acknowledged submit survives.
	f2 := newDurableFake(2, 4)
	s2, rs, err := plan.OpenService(f2, plan.ServiceConfig{}, fs.Reopen(), wal.Options{})
	if err != nil {
		t.Fatalf("reopen after wedge: %v", err)
	}
	defer s2.Close()
	if rs.Admitted != 1 || !f2.Admitted(dsps.StreamID(0)) || f2.Admitted(dsps.StreamID(1)) {
		t.Fatalf("recovered admitted set wrong: %+v", rs)
	}
}
