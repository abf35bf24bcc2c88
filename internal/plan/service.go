package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/wal"
)

// Typed errors of the admission service. Wrap-and-compare with errors.Is.
var (
	// ErrQueueFull reports that the service's bounded request queue was
	// full when the request arrived: backpressure, not failure. The caller
	// decides whether to retry, shed or block on its own.
	ErrQueueFull = errors.New("admission queue full")
	// ErrServiceClosed reports a request against a closed service.
	ErrServiceClosed = errors.New("admission service closed")
)

// ServiceConfig tunes an admission Service.
type ServiceConfig struct {
	// QueueDepth bounds the request queue; a request arriving while the
	// queue holds QueueDepth entries fails fast with ErrQueueFull. 0
	// selects 256.
	QueueDepth int
	// SnapshotEvery compacts the admission journal with a full state
	// snapshot after this many journaled records. Only meaningful for
	// services opened with OpenService; 0 selects 256 there.
	SnapshotEvery int
}

// TraceKind classifies one request: what the dispatcher applies and what
// its journal record names.
type TraceKind int8

// Dispatcher step kinds.
const (
	// TraceSubmit is one planning call: the primary query and the
	// client's WithBatch companions.
	TraceSubmit TraceKind = iota
	// TraceRemove is one Remove.
	TraceRemove
	// TraceRepair is one Repair of a batch of churn events.
	TraceRepair
)

// String returns a readable name for the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSubmit:
		return "submit"
	case TraceRemove:
		return "remove"
	case TraceRepair:
		return "repair"
	}
	return fmt.Sprintf("TraceKind(%d)", int8(k))
}

// LatencyBuckets lists the inclusive upper bounds of the per-request
// latency histogram kept in ServiceStats.LatencyHist; the histogram has one
// extra overflow bucket for latencies above the last bound. The ladder is
// chosen for an admission service whose solves run from sub-millisecond
// (warm-started repairs) to seconds (cold batch MILPs).
var LatencyBuckets = [...]time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

// latencyBucket maps a request latency to its LatencyHist index.
func latencyBucket(d time.Duration) int {
	for i, b := range LatencyBuckets {
		if d <= b {
			return i
		}
	}
	return len(LatencyBuckets)
}

// ServiceStats aggregates service-level telemetry, separate from the
// planner's own Stats: queueing, planner calls and per-request latency.
//
// Every client call lands in exactly one of Requests, Expired or QueueFull,
// and Replies == Requests + Expired (asserted in checked builds): shed
// calls never produce a reply, expired calls are answered without touching
// the planner, and everything else is applied.
type ServiceStats struct {
	// Requests counts requests the dispatcher applied: processed against
	// the wrapped planner, or answered with a service error at application
	// time (a planner error, the WAL wedge). Requests whose ctx expired
	// while queued are counted in Expired instead, never here.
	Requests int
	// Replies counts every reply delivered to a caller, applied or expired.
	Replies int
	// QueueFull counts requests shed with ErrQueueFull; they never enter
	// the queue and never get a dispatcher reply.
	QueueFull int
	// Expired counts requests whose ctx was done before the dispatcher
	// reached them; they are answered with the ctx error, unapplied.
	Expired int
	// Solves counts planner Submit calls; BatchedSubmits counts the queries
	// they carried (the primary plus its WithBatch companions), so the two
	// are equal unless clients submit explicit batches.
	Solves         int
	BatchedSubmits int
	// TotalLatency and MaxLatency aggregate per-request latency from
	// arrival in the queue to reply; LatencyHist buckets the same samples
	// by LatencyBuckets (last entry = overflow), so sum(LatencyHist) ==
	// Replies.
	TotalLatency time.Duration
	MaxLatency   time.Duration
	LatencyHist  [len(LatencyBuckets) + 1]int
}

// request is one queued client call.
type request struct {
	ctx     context.Context
	arrived time.Time

	// kind discriminates the union below.
	kind TraceKind

	q    dsps.StreamID  // TraceSubmit, TraceRemove
	opts []SubmitOption // TraceSubmit, TraceRepair
	evs  []Event        // TraceRepair

	done chan struct{}
	res  Result
	rr   RepairResult
	err  error

	// finished backs the checked-build reply-exactly-once invariant; it is
	// only touched by the dispatcher goroutine.
	finished bool
}

// Service is a goroutine-safe admission front-end over any QueryPlanner.
// Clients call Submit, Remove and Repair from arbitrary goroutines; one
// dispatcher goroutine drains the bounded request queue in arrival order and
// applies each request to the wrapped planner as one planner call, so the
// service admits exactly what a serial caller issuing the same requests in
// that order would. Reads (Admitted, AdmittedCount, Assignment, Stats)
// synchronise with the dispatcher through a planner mutex and may run
// concurrently with queued work.
//
// Service itself implements QueryPlanner, so it drops into every harness
// that drives one.
type Service struct {
	p   QueryPlanner //sqpr:guarded-by pmu
	cfg ServiceConfig

	reqs chan *request
	done chan struct{} // closed when the dispatcher exits

	// mu guards closed and makes enqueue-vs-Close safe: Close flips closed
	// under the write lock and then closes reqs, which no sender can touch
	// any more.
	mu     sync.RWMutex
	closed bool //sqpr:guarded-by mu

	// pmu serialises planner access between the dispatcher and readers.
	pmu sync.Mutex

	// smu guards the service stats. The sanctioned acquisition hierarchy
	// (enforced module-wide by the locks analyzer): the enqueue path
	// holds mu while bumping stats, the dispatcher holds pmu across solves
	// and takes smu to record them, and nothing may nest the other way.
	//
	//sqpr:lock-order Service.mu < Service.pmu < Service.smu
	smu   sync.Mutex
	stats ServiceStats //sqpr:guarded-by smu

	// Durable-service state (nil/zero for plain NewService services; see
	// OpenService in durable.go). The dispatcher journals through walLog
	// before acknowledging.
	walLog    *wal.Log      //sqpr:guarded-by pmu
	source    journalSource //sqpr:guarded-by pmu
	sinceSnap int           //sqpr:guarded-by pmu

	// wedge holds the first journal failure; it wedges the service so
	// memory never silently diverges from the log. The wedge is sticky
	// (set once, never cleared) and read lock-free, so Wedged — and
	// through it readiness probes — never queues behind pmu, which the
	// dispatcher holds across whole planner solves.
	wedge atomic.Pointer[error]

	closeOnce sync.Once
}

// Compile-time check: the service is itself a QueryPlanner.
var _ QueryPlanner = (*Service)(nil)

// NewService wraps planner p in an admission service and starts its
// dispatcher goroutine. The wrapped planner must not be driven directly
// while the service owns it. Call Close to stop the dispatcher.
func NewService(p QueryPlanner, cfg ServiceConfig) *Service {
	s := newService(p, cfg)
	go s.dispatch()
	return s
}

// newService builds the service without starting the dispatcher, so
// OpenService can finish recovery wiring first.
func newService(p QueryPlanner, cfg ServiceConfig) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	return &Service{
		p:    p,
		cfg:  cfg,
		reqs: make(chan *request, cfg.QueueDepth),
		done: make(chan struct{}),
	}
}

// Close stops accepting requests, lets the dispatcher drain and apply the
// requests already queued, and waits for it to exit. A durable service
// then flushes and closes its journal. Idempotent and safe to call
// concurrently with requests: late arrivals fail with ErrServiceClosed.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.reqs)
	})
	<-s.done
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.walLog != nil {
		// Sync-and-close; errors here mean the tail of the log may be lost
		// on a machine crash, which recovery handles, so they are not fatal
		// to the (already drained) service.
		_ = s.walLog.Close()
	}
}

// enqueue places r in the bounded queue, failing fast with ErrQueueFull on
// backpressure and ErrServiceClosed after Close.
func (s *Service) enqueue(r *request) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrServiceClosed
	}
	select {
	case s.reqs <- r:
		return nil
	default:
		s.smu.Lock()
		s.stats.QueueFull++
		s.smu.Unlock()
		return ErrQueueFull
	}
}

// Submit plans query q through the service. The call blocks until the
// dispatcher has applied the request or until ctx is done — but note a
// request whose ctx expires after the dispatcher picked it up is still
// planned under the solver deadline derived from that ctx. Returns
// ErrQueueFull immediately when the queue is full.
func (s *Service) Submit(ctx context.Context, q dsps.StreamID, opts ...SubmitOption) (Result, error) {
	ctx = OrBackground(ctx)
	r := &request{
		ctx: ctx, arrived: time.Now(), kind: TraceSubmit,
		q: q, opts: opts, done: make(chan struct{}),
	}
	if err := s.enqueue(r); err != nil {
		return Result{}, err
	}
	select {
	case <-r.done:
		return r.res, r.err
	case <-ctx.Done():
		// The dispatcher will notice the dead ctx and skip the request; the
		// caller gets the ctx error either way.
		return Result{}, ctx.Err()
	}
}

// Remove withdraws an admitted query through the service, in arrival order
// relative to concurrent submits and repairs.
func (s *Service) Remove(q dsps.StreamID) error {
	r := &request{
		ctx: OrBackground(nil), arrived: time.Now(), kind: TraceRemove,
		q: q, done: make(chan struct{}),
	}
	if err := s.enqueue(r); err != nil {
		return err
	}
	<-r.done
	return r.err
}

// Repair forwards churn events to the wrapped planner's Repair, serialised
// against concurrent submits and removes.
func (s *Service) Repair(ctx context.Context, events []Event, opts ...SubmitOption) (RepairResult, error) {
	ctx = OrBackground(ctx)
	r := &request{
		ctx: ctx, arrived: time.Now(), kind: TraceRepair,
		evs: events, opts: opts, done: make(chan struct{}),
	}
	if err := s.enqueue(r); err != nil {
		return RepairResult{}, err
	}
	select {
	case <-r.done:
		return r.rr, r.err
	case <-ctx.Done():
		return RepairResult{}, ctx.Err()
	}
}

// Admitted reports whether query stream q is currently served.
func (s *Service) Admitted(q dsps.StreamID) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.p.Admitted(q)
}

// AdmittedCount returns the number of admitted queries.
func (s *Service) AdmittedCount() int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.p.AdmittedCount()
}

// Assignment returns a deep copy of the wrapped planner's allocation state:
// unlike a bare planner, the service cannot hand out its live state, which
// the dispatcher mutates concurrently. The copy records nothing into the
// planner's change record.
func (s *Service) Assignment() *dsps.Assignment {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.p.Assignment().Snapshot()
}

// AdmittedQueries returns the sorted list of currently admitted query
// streams: the wrapped planner's own AdmittedQueries when it has one (every
// planner built on Ledger does), else the Admitted list of its exported
// state when it is a StatePorter; nil only for a planner that can do
// neither. The list is a copy.
func (s *Service) AdmittedQueries() []dsps.StreamID {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	switch p := s.p.(type) {
	case interface{ AdmittedQueries() []dsps.StreamID }:
		// Never nil: nil means "cannot list", not "none admitted".
		return append([]dsps.StreamID{}, p.AdmittedQueries()...)
	case StatePorter:
		return p.ExportState().Admitted
	}
	return nil
}

// Stats returns the wrapped planner's cumulative telemetry.
func (s *Service) Stats() Stats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.p.Stats()
}

// ServiceStats returns the service-level telemetry snapshot.
func (s *Service) ServiceStats() ServiceStats {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.stats
}

// dispatch is the single dispatcher goroutine: it applies the queued
// requests one at a time, in arrival order, until Close closes the queue.
func (s *Service) dispatch() {
	defer close(s.done)
	for r := range s.reqs {
		s.apply(r)
	}
}

// apply answers one request. A ctx that died in the queue is answered
// without touching the planner; everything else is one planner call. For a
// durable service the outcome is journaled before finish acknowledges the
// caller; a journal failure replaces the reply with the wedge error.
func (s *Service) apply(r *request) {
	if err := r.ctx.Err(); err != nil {
		r.err = err
		s.finishExpired(r)
		return
	}
	s.pmu.Lock()
	if err := s.Wedged(); err != nil {
		s.pmu.Unlock()
		r.err = err
		s.finish(r)
		return
	}
	switch r.kind {
	case TraceSubmit:
		r.res, r.err = s.p.Submit(r.ctx, r.q, r.opts...)
		cfg := Apply(r.opts)
		s.recordSolve(len(cfg.Queries(r.q)))
	case TraceRemove:
		r.err = s.p.Remove(r.q)
	case TraceRepair:
		r.rr, r.err = s.p.Repair(r.ctx, r.evs, r.opts...)
	}
	if jerr := s.journal(r.kind); jerr != nil {
		r.err = jerr
	}
	s.pmu.Unlock()
	s.finish(r)
}

// recordSolve counts one planner Submit call carrying n queries. Callers
// hold pmu; the stats mutex still applies because readers don't.
func (s *Service) recordSolve(n int) {
	s.smu.Lock()
	s.stats.Solves++
	s.stats.BatchedSubmits += n
	if invariant.Enabled && s.stats.BatchedSubmits < s.stats.Solves {
		invariant.Failf("service: stats accounting drifted: %d batched submits over %d solves",
			s.stats.BatchedSubmits, s.stats.Solves)
	}
	s.smu.Unlock()
}

// finish replies to a caller whose request was applied (planned, removed,
// repaired, or answered with a service error at application time) and
// records the reply accounting and latency.
func (s *Service) finish(r *request) { s.reply(r, true) }

// finishExpired replies to a caller whose ctx died in the queue; the
// request never touched the planner and counts in Expired, not Requests.
func (s *Service) finishExpired(r *request) { s.reply(r, false) }

// reply releases the caller: closing r.done is the acknowledgement the
// submitter blocks on, so everything the outcome depends on must be
// durable by the time reply runs (the walorder analyzer enforces this
// module-wide).
//
//sqpr:ack-point
func (s *Service) reply(r *request, applied bool) {
	if invariant.Enabled && r.finished {
		invariant.Failf("service: request finished twice (kind %v, query %v)", r.kind, r.q)
	}
	r.finished = true
	lat := time.Since(r.arrived)
	s.smu.Lock()
	s.stats.Replies++
	if applied {
		s.stats.Requests++
	} else {
		s.stats.Expired++
	}
	s.stats.TotalLatency += lat
	if lat > s.stats.MaxLatency {
		s.stats.MaxLatency = lat
	}
	s.stats.LatencyHist[latencyBucket(lat)]++
	if invariant.Enabled && s.stats.Replies != s.stats.Requests+s.stats.Expired {
		invariant.Failf("service: reply accounting drifted: %d replies != %d applied + %d expired",
			s.stats.Replies, s.stats.Requests, s.stats.Expired)
	}
	s.smu.Unlock()
	close(r.done)
}
