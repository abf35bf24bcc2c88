package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sqpr/internal/dsps"
)

// joinSetup builds two hosts, two base streams on host 0, and a join whose
// result is provided from host 1 (so a flow is involved).
func joinSetup(t *testing.T) (*dsps.System, *dsps.Assignment, dsps.StreamID) {
	t.Helper()
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(20, dsps.NoOperator, "a")
	b := sys.AddStream(20, dsps.NoOperator, "b")
	sys.PlaceBase(0, a)
	sys.PlaceBase(0, b)
	op := sys.AddOperator([]dsps.StreamID{a, b}, 5, 1, "ab")
	sys.SetRequested(op.Output, true)

	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: op.ID})
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: op.Output})
	asg.SetProvide(op.Output, 1)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}
	return sys, asg, op.Output
}

func TestDeployAndDeliver(t *testing.T) {
	sys, asg, out := joinSetup(t)
	cfg := DefaultConfig()
	cfg.KeyDomain = 4 // join aggressively so results appear quickly
	eng := New(sys, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	got := 0
loop:
	for {
		select {
		case tup := <-eng.Results():
			if tup.Stream != out {
				t.Fatalf("unexpected result stream %d", tup.Stream)
			}
			got++
			if got >= 3 {
				break loop
			}
		case <-deadline:
			break loop
		}
	}
	eng.Stop()
	if got == 0 {
		t.Fatal("no result tuples delivered")
	}
	snap := eng.Monitor().Snapshot()
	if snap.CPUWork[0] == 0 {
		t.Fatal("monitor recorded no CPU work on the operator host")
	}
	if snap.Sent[0] == 0 || snap.Received[1] == 0 {
		t.Fatal("monitor recorded no transfer along the flow")
	}
}

// TestUnaryOperatorDelivers deploys one source feeding one single-input
// operator on one host: every delivered tuple is on the operator's output
// stream, numbered by the operator in strictly increasing order, and the
// monitor charges the operator's work to the host.
func TestUnaryOperatorDelivers(t *testing.T) {
	hosts := []dsps.Host{{ID: 0, CPU: 10, OutBW: 100, InBW: 100}}
	sys := dsps.NewSystem(hosts, 100)
	src := sys.AddStream(50, dsps.NoOperator, "src")
	sys.PlaceBase(0, src)
	op := sys.AddOperator([]dsps.StreamID{src}, 25, 0.5, "project")
	sys.SetRequested(op.Output, true)

	asg := dsps.NewAssignment()
	asg.AddOp(dsps.Placement{Host: 0, Op: op.ID})
	asg.SetProvide(op.Output, 0)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	eng := New(sys, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	got := 0
	var last int64
loop:
	for {
		select {
		case tup := <-eng.Results():
			if tup.Stream != op.Output {
				t.Fatalf("delivered stream %d, want the operator's output %d", tup.Stream, op.Output)
			}
			if tup.SeqNo <= last {
				t.Fatalf("SeqNo %d after %d: not strictly increasing", tup.SeqNo, last)
			}
			last = tup.SeqNo
			got++
			if got >= 5 {
				break loop
			}
		case <-deadline:
			break loop
		}
	}
	eng.Stop()
	if got == 0 {
		t.Fatal("unary operator delivered nothing")
	}
	if eng.Monitor().Snapshot().CPUWork[0] == 0 {
		t.Fatal("monitor recorded no CPU work on the operator host")
	}
}

func TestDeployRejectsInfeasiblePlan(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	// Corrupt the plan: flow of a stream the sender does not possess.
	phantom := sys.AddStream(5, dsps.NoOperator, "phantom")
	sys.PlaceBase(1, phantom)
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: phantom})
	eng := New(sys, DefaultConfig())
	if err := eng.Deploy(context.Background(), asg); err == nil {
		eng.Stop()
		t.Fatal("expected deployment of infeasible plan to fail")
	}
}

func TestRelayChainDelivers(t *testing.T) {
	// Base at host 0, relayed 0→1→2, provided from host 2.
	hosts := []dsps.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 2, CPU: 10, OutBW: 100, InBW: 100},
	}
	sys := dsps.NewSystem(hosts, 100)
	a := sys.AddStream(50, dsps.NoOperator, "a")
	sys.PlaceBase(0, a)
	sys.SetRequested(a, true)
	asg := dsps.NewAssignment()
	asg.AddFlow(dsps.Flow{From: 0, To: 1, Stream: a})
	asg.AddFlow(dsps.Flow{From: 1, To: 2, Stream: a})
	asg.SetProvide(a, 2)
	if err := asg.Validate(sys); err != nil {
		t.Fatal(err)
	}

	eng := New(sys, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	select {
	case tup := <-eng.Results():
		if tup.Stream != a {
			t.Fatalf("wrong stream %d", tup.Stream)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relay chain delivered nothing")
	}
	eng.Stop()
	snap := eng.Monitor().Snapshot()
	if snap.Sent[0] == 0 || snap.Sent[1] == 0 {
		t.Fatal("relay hop not recorded by the monitor")
	}
}

func TestWindowEviction(t *testing.T) {
	w := newWindow(2)
	w.add(Tuple{Key: 1, SeqNo: 1})
	w.add(Tuple{Key: 2, SeqNo: 2})
	w.add(Tuple{Key: 3, SeqNo: 3}) // evicts key 1
	if got := w.matching(1); len(got) != 0 {
		t.Fatalf("evicted key still matches: %v", got)
	}
	if got := w.matching(3); len(got) != 1 {
		t.Fatalf("fresh key missing: %v", got)
	}
}

func TestWindowDuplicateKeys(t *testing.T) {
	w := newWindow(8)
	for i := int64(0); i < 4; i++ {
		w.add(Tuple{Key: 7, SeqNo: i})
	}
	if got := w.matching(7); len(got) != 4 {
		t.Fatalf("expected 4 matches, got %d", len(got))
	}
}

func TestMonitorSnapshotIsCopy(t *testing.T) {
	sys, _, _ := joinSetup(t)
	m := NewMonitor(sys)
	m.recordCompute(0, 5)
	snap := m.Snapshot()
	snap.CPUWork[0] = 999
	if m.Snapshot().CPUWork[0] != 5 {
		t.Fatal("snapshot aliases monitor state")
	}
}

func TestStopTerminatesGoroutines(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	eng := New(sys, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eng.Deploy(ctx, asg); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		eng.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop did not terminate within 3s")
	}
}

func TestStopClosesResults(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	eng := New(sys, DefaultConfig())
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	// A consumer ranging over Results must terminate once Stop runs.
	consumed := make(chan struct{})
	go func() {
		for range eng.Results() {
		}
		close(consumed)
	}()
	time.Sleep(50 * time.Millisecond)
	eng.Stop()
	select {
	case <-consumed:
	case <-time.After(3 * time.Second):
		t.Fatal("consumer ranging over Results() did not terminate after Stop")
	}
}

func TestStopIdempotent(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	eng := New(sys, DefaultConfig())

	// Stop before Deploy must be a no-op, not a panic.
	eng.Stop()

	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	eng.Stop() // double Stop must not panic or double-close

	// Concurrent Stops must also be safe.
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Stop()
		}()
	}
	wg.Wait()
}

func TestDeployOnRunningEngineRejected(t *testing.T) {
	sys, asg, _ := joinSetup(t)
	eng := New(sys, DefaultConfig())
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Deploy(context.Background(), asg); !errors.Is(err, ErrAlreadyDeployed) {
		t.Fatalf("second Deploy on a running engine: err = %v, want ErrAlreadyDeployed", err)
	}
}

func TestRedeployAfterStop(t *testing.T) {
	sys, asg, out := joinSetup(t)
	cfg := DefaultConfig()
	cfg.KeyDomain = 4
	eng := New(sys, cfg)
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	// A stopped engine redeploys cleanly with a fresh Results channel.
	if err := eng.Deploy(context.Background(), asg); err != nil {
		t.Fatalf("redeploy after Stop: %v", err)
	}
	select {
	case tup := <-eng.Results():
		if tup.Stream != out {
			t.Fatalf("wrong stream %d after redeploy", tup.Stream)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("redeployed engine delivered nothing")
	}
	eng.Stop()
}
