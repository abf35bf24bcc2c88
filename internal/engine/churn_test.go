package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// drain empties the results channel without blocking.
func drain(ch <-chan Tuple) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// awaitResult waits up to d for one delivered tuple.
func awaitResult(ch <-chan Tuple, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func TestFailAndRecoverHost(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	cfg := DefaultConfig()
	cfg.KeyDomain = 4
	eng := New(sys, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	if !awaitResult(eng.Results(), 2*time.Second) {
		t.Fatal("no results before the failure")
	}

	// Fail the providing host: tuples flowing 0 -> 1 are lost in flight.
	eng.FailHost(1)
	if !eng.HostDown(1) {
		t.Fatal("HostDown(1) = false after FailHost")
	}
	// Let in-flight tuples clear, then verify delivery has stopped.
	time.Sleep(100 * time.Millisecond)
	drain(eng.Results())
	if awaitResult(eng.Results(), 200*time.Millisecond) {
		t.Fatal("results delivered while the providing host was down")
	}
	snap := eng.Monitor().Snapshot()
	if snap.Drops[0] == 0 {
		t.Fatal("no drops recorded for tuples sent to the failed host")
	}

	// Recovery resumes delivery on the same deployed plan.
	eng.RecoverHost(1)
	if eng.HostDown(1) {
		t.Fatal("HostDown(1) = true after RecoverHost")
	}
	if !awaitResult(eng.Results(), 2*time.Second) {
		t.Fatal("no results after recovery")
	}
	fails, recs := eng.Monitor().HostEvents()
	if fails != 1 || recs != 1 {
		t.Fatalf("HostEvents = (%d, %d), want (1, 1)", fails, recs)
	}
}

// TestApplyChurnDrivesEngineAndPlanner checks the service-based churn entry
// point: one call fails the host on the dataplane and repairs the plan, and
// works identically through a goroutine-safe plan.Service front-end.
func TestApplyChurnDrivesEngineAndPlanner(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	eng := New(sys, DefaultConfig())
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// A stub planner records the repair events it was handed and commits
	// their host-state transitions to the shared system, as every real
	// planner's Repair does — ApplyChurn mirrors the engine from there.
	rec := &recordingPlanner{sys: sys}
	svc := plan.NewService(rec, plan.ServiceConfig{})
	defer svc.Close()

	if _, err := eng.ApplyChurn(context.Background(), svc, []plan.Event{plan.FailHost(1)}); err != nil {
		t.Fatal(err)
	}
	if !eng.HostDown(1) {
		t.Fatal("ApplyChurn did not fail host 1 on the engine")
	}
	if rec.events() != 1 {
		t.Fatalf("planner saw %d repair events, want 1", rec.events())
	}

	if _, err := eng.ApplyChurn(context.Background(), svc, []plan.Event{plan.RecoverHost(1)}); err != nil {
		t.Fatal(err)
	}
	if eng.HostDown(1) {
		t.Fatal("ApplyChurn did not recover host 1 on the engine")
	}

	// Out-of-range hosts are rejected before any state changes.
	if _, err := eng.ApplyChurn(context.Background(), svc, []plan.Event{plan.FailHost(99)}); err == nil {
		t.Fatal("ApplyChurn accepted an out-of-range host")
	}

	// A malformed event set fails the planner's validation before any
	// host-state transition commits; the mirror must leave the engine
	// unchanged too.
	bad := []plan.Event{plan.FailHost(1), plan.DriftQuery(dsps.StreamID(9999))}
	if _, err := eng.ApplyChurn(context.Background(), svc, bad); err == nil {
		t.Fatal("ApplyChurn accepted a malformed event set")
	}
	if eng.HostDown(1) {
		t.Fatal("ApplyChurn failed the engine host although the planner rejected the events pre-commit")
	}

	// When the repair never reaches the planner (here: closed service), the
	// engine half must not be applied either — neither side committed.
	svc.Close()
	if _, err := eng.ApplyChurn(context.Background(), svc, []plan.Event{plan.FailHost(1)}); !errors.Is(err, plan.ErrServiceClosed) {
		t.Fatalf("ApplyChurn on closed service: err = %v, want ErrServiceClosed", err)
	}
	if eng.HostDown(1) {
		t.Fatal("ApplyChurn failed the engine host although the planner never saw the repair")
	}
}

// recordingPlanner is a minimal QueryPlanner stub counting Repair events.
type recordingPlanner struct {
	mu  sync.Mutex
	sys *dsps.System
	n   int
}

func (r *recordingPlanner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	return plan.Result{Admitted: true}, nil
}
func (r *recordingPlanner) Remove(q dsps.StreamID) error { return nil }
func (r *recordingPlanner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	r.mu.Lock()
	r.n += len(events)
	r.mu.Unlock()
	if err := plan.ApplyEvents(r.sys, events); err != nil {
		return plan.RepairResult{}, err
	}
	return plan.RepairResult{}, nil
}
func (r *recordingPlanner) Assignment() *dsps.Assignment  { return dsps.NewAssignment() }
func (r *recordingPlanner) Admitted(q dsps.StreamID) bool { return false }
func (r *recordingPlanner) AdmittedCount() int            { return 0 }
func (r *recordingPlanner) Stats() plan.Stats             { return plan.Stats{} }

func (r *recordingPlanner) events() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func TestEngineHostStates(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 1}, {ID: 1, CPU: 1}, {ID: 2, CPU: 1}}
	sys := dsps.NewSystem(hosts, 10)
	eng := New(sys, DefaultConfig())
	eng.FailHost(1)
	got := eng.HostStates()
	want := []dsps.HostState{dsps.HostUp, dsps.HostDown, dsps.HostUp}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HostStates[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	eng.RecoverHost(1)
	if st := eng.HostStates(); st[1] != dsps.HostUp {
		t.Fatalf("recovered host still %v", st[1])
	}
}
