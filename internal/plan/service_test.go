package plan_test

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// fakePlanner is a deterministic, single-threaded QueryPlanner for service
// unit tests: it admits everything, records every call it receives, and can
// be slowed down or blocked to force requests to pile up behind the
// dispatcher.
type fakePlanner struct {
	mu    sync.Mutex
	delay time.Duration
	// gate, when set, holds every Submit until it is closed; entered is
	// signalled each time a Submit reaches the gate.
	gate     chan struct{}
	entered  chan struct{}
	calls    []fakeCall // every call the dispatcher made, in order
	admitted map[dsps.StreamID]bool
	active   int // concurrent calls observed (must stay <= 1)
	maxAct   int
}

// fakeCall is one planner call as the fake saw it: a Submit lists its
// primary query and WithBatch companions, a Remove its query.
type fakeCall struct {
	kind    plan.TraceKind
	queries []dsps.StreamID
}

func (f *fakePlanner) record(kind plan.TraceKind, qs ...dsps.StreamID) {
	f.mu.Lock()
	f.calls = append(f.calls, fakeCall{kind, qs})
	f.mu.Unlock()
}

func newFakePlanner(delay time.Duration) *fakePlanner {
	return &fakePlanner{delay: delay, admitted: make(map[dsps.StreamID]bool)}
}

func (f *fakePlanner) enter() {
	f.mu.Lock()
	f.active++
	if f.active > f.maxAct {
		f.maxAct = f.active
	}
	f.mu.Unlock()
}

func (f *fakePlanner) exit() {
	f.mu.Lock()
	f.active--
	f.mu.Unlock()
}

func (f *fakePlanner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	f.enter()
	defer f.exit()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.gate != nil {
		f.entered <- struct{}{}
		<-f.gate
	}
	cfg := plan.Apply(opts)
	qs := cfg.Queries(q)
	f.record(plan.TraceSubmit, qs...)
	if err := ctx.Err(); err != nil {
		return plan.Result{}, err
	}
	f.mu.Lock()
	for _, s := range qs {
		f.admitted[s] = true
	}
	f.mu.Unlock()
	return plan.Result{Admitted: true}, nil
}

func (f *fakePlanner) Remove(q dsps.StreamID) error {
	f.enter()
	defer f.exit()
	f.record(plan.TraceRemove, q)
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.admitted[q] {
		return plan.ErrNotAdmitted
	}
	delete(f.admitted, q)
	return nil
}

func (f *fakePlanner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	f.enter()
	defer f.exit()
	f.record(plan.TraceRepair)
	return plan.RepairResult{Result: plan.Result{Admitted: true}}, nil
}

func (f *fakePlanner) Assignment() *dsps.Assignment { return dsps.NewAssignment() }

func (f *fakePlanner) Admitted(q dsps.StreamID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted[q]
}

func (f *fakePlanner) AdmittedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.admitted)
}

func (f *fakePlanner) Stats() plan.Stats { return plan.Stats{} }

// TestServiceAppliesOneRequestPerCall pins the dispatcher's contract:
// requests parked behind a blocked planner are applied one per planner call,
// in enqueue order, with a Remove landing in its arrival slot and a request
// whose ctx died in the queue answered unapplied without disturbing its
// neighbours.
func TestServiceAppliesOneRequestPerCall(t *testing.T) {
	f := newFakePlanner(0)
	f.gate = make(chan struct{})
	f.entered = make(chan struct{}, 8) // one slot per submit of the test
	s := plan.NewService(f, plan.ServiceConfig{})

	// park starts call on its own goroutine and returns once its request
	// sits in the queue as the queued-th entry.
	var wg sync.WaitGroup
	park := func(queued int, call func()) {
		t.Helper()
		wg.Add(1)
		go func() {
			defer wg.Done()
			call()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.QueueLen() != queued {
			if time.Now().After(deadline) {
				t.Fatalf("queue holds %d requests, want %d", s.QueueLen(), queued)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	submit := func(ctx context.Context, q dsps.StreamID, want error) func() {
		return func() {
			if _, err := s.Submit(ctx, q); !errors.Is(err, want) {
				t.Errorf("Submit(%d): err = %v, want %v", q, err, want)
			}
		}
	}
	bg := context.Background()

	// Query 0 holds the dispatcher inside the planner; everything else
	// queues behind it in a known order.
	park(0, submit(bg, 0, nil))
	<-f.entered
	park(1, submit(bg, 1, nil))
	park(2, submit(bg, 2, nil))
	park(3, func() {
		if err := s.Remove(1); err != nil {
			t.Errorf("Remove(1): %v", err)
		}
	})
	dying, cancel := context.WithCancel(bg)
	park(4, submit(dying, 3, context.Canceled))
	park(5, submit(bg, 4, nil))
	park(6, submit(bg, 5, nil))
	cancel()
	close(f.gate)
	wg.Wait()
	s.Close()

	type step struct {
		kind plan.TraceKind
		q    dsps.StreamID
	}
	want := []step{
		{plan.TraceSubmit, 0}, {plan.TraceSubmit, 1}, {plan.TraceSubmit, 2},
		{plan.TraceRemove, 1}, {plan.TraceSubmit, 4}, {plan.TraceSubmit, 5},
	}
	if len(f.calls) != len(want) {
		t.Fatalf("planner saw %d calls, want %d: %+v", len(f.calls), len(want), f.calls)
	}
	for i, w := range want {
		if c := f.calls[i]; c.kind != w.kind || len(c.queries) != 1 || c.queries[0] != w.q {
			t.Fatalf("call %d = %v %v, want %v [%d]", i, c.kind, c.queries, w.kind, w.q)
		}
	}
	if f.maxAct > 1 {
		t.Fatalf("planner entered concurrently (%d at once)", f.maxAct)
	}
	if f.Admitted(3) {
		t.Fatal("planner planned a request whose ctx died in the queue")
	}
	ss := s.ServiceStats()
	if ss.Solves != 5 || ss.BatchedSubmits != 5 || ss.Expired != 1 || ss.Requests != 6 || ss.Replies != 7 {
		t.Fatalf("stats = %+v, want 5 solves, 5 batched submits, 1 expired, 6 requests, 7 replies", ss)
	}
}

// TestServiceQueueFull checks backpressure: with a tiny queue and a slow
// planner, excess submits fail fast with ErrQueueFull instead of blocking.
func TestServiceQueueFull(t *testing.T) {
	f := newFakePlanner(50 * time.Millisecond)
	s := plan.NewService(f, plan.ServiceConfig{QueueDepth: 2})
	defer s.Close()

	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	full := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(q dsps.StreamID) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), q)
			if errors.Is(err, plan.ErrQueueFull) {
				mu.Lock()
				full++
				mu.Unlock()
			} else if err != nil {
				t.Errorf("Submit(%d): %v", q, err)
			}
		}(dsps.StreamID(i))
	}
	wg.Wait()
	if full == 0 {
		t.Fatal("32 submits against a depth-2 queue with a 50ms planner never saw ErrQueueFull")
	}
	if got := s.ServiceStats().QueueFull; got != full {
		t.Fatalf("stats.QueueFull = %d, want %d", got, full)
	}
}

// TestServiceCloseIdempotent checks shutdown: queued work drains, late
// requests fail with ErrServiceClosed, and double Close does not panic.
func TestServiceCloseIdempotent(t *testing.T) {
	f := newFakePlanner(0)
	s := plan.NewService(f, plan.ServiceConfig{})
	if _, err := s.Submit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // must not panic
	if _, err := s.Submit(context.Background(), 2); !errors.Is(err, plan.ErrServiceClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrServiceClosed", err)
	}
	if err := s.Remove(1); !errors.Is(err, plan.ErrServiceClosed) {
		t.Fatalf("Remove after Close: err = %v, want ErrServiceClosed", err)
	}
	if _, err := s.Repair(context.Background(), nil); !errors.Is(err, plan.ErrServiceClosed) {
		t.Fatalf("Repair after Close: err = %v, want ErrServiceClosed", err)
	}
}

// TestServiceExpiredContextSkipped checks per-request deadlines: a request
// whose ctx died while queued is answered with the ctx error and never
// reaches the planner.
func TestServiceExpiredContextSkipped(t *testing.T) {
	f := newFakePlanner(30 * time.Millisecond)
	s := plan.NewService(f, plan.ServiceConfig{})
	defer s.Close()

	// Occupy the dispatcher, then enqueue a request that expires while
	// waiting behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), 1)
	}()
	time.Sleep(5 * time.Millisecond) // let the first submit get picked up
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired submit: err = %v, want context.Canceled", err)
	}
	wg.Wait()
	// Give the dispatcher time to (wrongly) plan query 2 if it were going to.
	time.Sleep(50 * time.Millisecond)
	if f.Admitted(2) {
		t.Fatal("planner planned a request whose ctx was already cancelled")
	}
	if s.ServiceStats().Expired == 0 {
		t.Fatal("stats recorded no expired request")
	}
}

// blockingPlanner's Submit blocks until its ctx is done, or until a 2 s
// fallback passes, and reports on ended which of the two ended it.
type blockingPlanner struct {
	*fakePlanner
	entered chan struct{}
	ended   chan error
}

var errFallback = errors.New("planner call outlived its 2 s fallback")

func (b *blockingPlanner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	b.entered <- struct{}{}
	err := errFallback
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case <-time.After(2 * time.Second):
	}
	b.ended <- err
	return plan.Result{}, err
}

// TestServiceCancelReachesThePlanner: cancelling a caller's ctx cancels the
// planner call the dispatcher is making for it, so a long solve for a
// caller that gave up stops instead of holding the dispatcher.
func TestServiceCancelReachesThePlanner(t *testing.T) {
	b := &blockingPlanner{fakePlanner: newFakePlanner(0), entered: make(chan struct{}, 1), ended: make(chan error, 1)}
	s := plan.NewService(b, plan.ServiceConfig{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	replied := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, 1)
		replied <- err
	}()
	<-b.entered
	start := time.Now()
	cancel()
	if err := <-b.ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("the planner call ended with %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("the planner call ended %v after the cancel", waited)
	}
	if err := <-replied; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit: err = %v, want context.Canceled", err)
	}
}

// TestServiceOrderAndTrace checks the ordering guarantee: requests reach
// the planner in arrival order, and a client's explicit batch is one
// planner call, counted with all its queries.
func TestServiceOrderAndTrace(t *testing.T) {
	f := newFakePlanner(0)
	s := plan.NewService(f, plan.ServiceConfig{})
	// Sequential requests (each waits for its reply), so the order is fixed.
	ctx := context.Background()
	if _, err := s.Submit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair(ctx, []plan.Event{plan.FailHost(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, 3, plan.WithBatch(4, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	want := []plan.TraceKind{plan.TraceSubmit, plan.TraceSubmit, plan.TraceRemove, plan.TraceRepair, plan.TraceSubmit}
	if len(f.calls) != len(want) {
		t.Fatalf("planner saw %d calls, want %d: %+v", len(f.calls), len(want), f.calls)
	}
	for i, k := range want {
		if f.calls[i].kind != k {
			t.Fatalf("call %d is a %v, want %v", i, f.calls[i].kind, k)
		}
	}
	if f.calls[2].queries[0] != 1 {
		t.Fatalf("Remove reached the planner for %d, want 1", f.calls[2].queries[0])
	}
	if got := f.calls[4].queries; !slices.Equal(got, []dsps.StreamID{3, 4, 5}) {
		t.Fatalf("explicit-batch call carried %v, want [3 4 5]", got)
	}
	if ss := s.ServiceStats(); ss.Solves != 3 || ss.BatchedSubmits != 5 {
		t.Fatalf("%d solves carried %d queries, want 3 and 5", ss.Solves, ss.BatchedSubmits)
	}
}

// TestServiceReplyAccounting pins the Requests/Replies/Expired split: an
// expired request is a reply but not an applied request, so the identity
// Replies == Requests + Expired holds and Requests counts only requests
// that reached the application step.
func TestServiceReplyAccounting(t *testing.T) {
	f := newFakePlanner(30 * time.Millisecond)
	s := plan.NewService(f, plan.ServiceConfig{})
	defer s.Close()

	// Occupy the dispatcher, then enqueue a request that expires behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), 1)
	}()
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired submit: err = %v, want context.Canceled", err)
	}
	wg.Wait()
	s.Close() // drain so the expired request's reply is recorded

	ss := s.ServiceStats()
	if ss.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", ss.Expired)
	}
	if ss.Requests != 1 {
		t.Fatalf("Requests = %d, want 1 (expired request must not count as applied)", ss.Requests)
	}
	if ss.Replies != ss.Requests+ss.Expired {
		t.Fatalf("Replies = %d, want Requests+Expired = %d", ss.Replies, ss.Requests+ss.Expired)
	}
}

// TestServiceLatencyHistogram checks that every reply lands in exactly one
// latency bucket: sum(LatencyHist) == Replies.
func TestServiceLatencyHistogram(t *testing.T) {
	f := newFakePlanner(time.Millisecond)
	s := plan.NewService(f, plan.ServiceConfig{})
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(context.Background(), dsps.StreamID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	ss := s.ServiceStats()
	total := 0
	for _, n := range ss.LatencyHist {
		total += n
	}
	if total != ss.Replies || ss.Replies != 10 {
		t.Fatalf("histogram holds %d samples, Replies = %d, want both 10", total, ss.Replies)
	}
	if ss.MaxLatency <= 0 || ss.TotalLatency < ss.MaxLatency {
		t.Fatalf("latency aggregates inconsistent: total=%v max=%v", ss.TotalLatency, ss.MaxLatency)
	}
}

// listingFake is a StatePorter that can also list its admitted queries; it
// counts the state exports it is asked for.
type listingFake struct {
	*durableFake
	exports int
}

func (f *listingFake) ExportState() plan.State {
	f.exports++
	return f.durableFake.ExportState()
}

func (f *listingFake) AdmittedQueries() []dsps.StreamID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Sorted(maps.Keys(f.admitted))
}

// TestServiceAdmittedQueriesAsksThePlanner checks that listing the admitted
// queries does not clone the planner's whole state when the planner can list
// them itself, and that the StatePorter fallback still answers for one that
// cannot.
func TestServiceAdmittedQueriesAsksThePlanner(t *testing.T) {
	ctx := context.Background()
	want := []dsps.StreamID{1, 3, 4}
	fill := func(s *plan.Service) {
		t.Helper()
		for _, q := range []dsps.StreamID{4, 1, 3} {
			if _, err := s.Submit(ctx, q); err != nil {
				t.Fatalf("Submit(%d): %v", q, err)
			}
		}
	}

	lf := &listingFake{durableFake: newDurableFake(2, 6)}
	s := plan.NewService(lf, plan.ServiceConfig{})
	defer s.Close()
	if got := s.AdmittedQueries(); got == nil || len(got) != 0 {
		t.Fatalf("empty planner lists %#v, want a non-nil empty list", got)
	}
	fill(s)
	if got := s.AdmittedQueries(); !slices.Equal(got, want) {
		t.Fatalf("AdmittedQueries = %v, want %v", got, want)
	}
	if lf.exports != 0 {
		t.Fatalf("listing the admitted queries exported the planner state %d times, want 0", lf.exports)
	}

	porter := plan.NewService(newDurableFake(2, 6), plan.ServiceConfig{})
	defer porter.Close()
	fill(porter)
	if got := porter.AdmittedQueries(); !slices.Equal(got, want) {
		t.Fatalf("StatePorter fallback lists %v, want %v", got, want)
	}

	bare := plan.NewService(newFakePlanner(0), plan.ServiceConfig{})
	defer bare.Close()
	if got := bare.AdmittedQueries(); got != nil {
		t.Fatalf("a planner that cannot list its queries answered %v, want nil", got)
	}
}
