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
	// MaxBatch caps how many coalescible submits the dispatcher folds into
	// one WithBatch joint solve. 0 selects 8; 1 disables coalescing.
	MaxBatch int
	// BatchTimeout, when positive, bounds each coalesced joint solve by
	// this budget instead of the planner's default batch-scaled deadline
	// (which multiplies the per-query budget by the batch size, as in the
	// paper's "timeout of 30n secs"). A service optimising for admission
	// throughput wants this: the batch amortises the solver's fixed costs,
	// and letting its deadline grow linearly with the batch size would give
	// back exactly the wall-clock the coalescing won.
	BatchTimeout time.Duration
	// RetryRejected re-submits individually every coalesced member the
	// joint solve did not admit, so riding in a batch never costs a client
	// an admission it would have received submitting alone. Off by
	// default: below saturation stragglers are rare and the retry is
	// almost free, but on a saturated system most rejections are genuine
	// and each one would pay a full solo solve.
	RetryRejected bool
	// OnTrace, when non-nil, is invoked synchronously from the dispatcher
	// goroutine after every applied request group, in application order. It
	// is the service's audit stream: tests replay it to check serial
	// equivalence, harnesses log it. The callback must not call back into
	// the service.
	OnTrace func(Trace)
	// SnapshotEvery compacts the admission journal with a full state
	// snapshot after this many journaled records. Only meaningful for
	// services opened with OpenService; 0 selects 256 there.
	SnapshotEvery int
}

// TraceKind classifies one dispatcher application step.
type TraceKind int8

// Dispatcher step kinds.
const (
	// TraceSubmit is one planning call: Queries[0] is the primary query and
	// Queries[1:] are the batch companions coalesced into the joint solve.
	TraceSubmit TraceKind = iota
	// TraceRemove is one Remove; Queries holds the single removed query.
	TraceRemove
	// TraceRepair is one Repair; Events holds its churn events.
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

// Trace describes one request group the dispatcher applied to the wrapped
// planner, in application order.
type Trace struct {
	Kind    TraceKind
	Queries []dsps.StreamID
	Events  []Event
	// Err is the error the planner call returned (nil on success; a
	// rejection is not an error).
	Err error
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
// planner's own Stats: queueing, coalescing and per-request latency.
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
	// Solves counts joint planning calls; BatchedSubmits counts the
	// submits they carried, so BatchedSubmits/Solves is the mean coalesced
	// batch size and MaxBatch the largest one.
	Solves         int
	BatchedSubmits int
	MaxBatch       int
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
// applies the requests to the wrapped planner, coalescing runs of plain
// submits that queued up while the previous solve ran into a single
// WithBatch joint solve — amortising MILP compile and warm-start across the
// batch (§V-A1), so thread safety and throughput come from the same
// mechanism. Reads (Admitted, AdmittedCount, Assignment, Stats) synchronise
// with the dispatcher through a planner mutex and may run concurrently with
// queued work.
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
	// (enforced module-wide by the lockorder analyzer): the enqueue path
	// holds mu while bumping stats, the dispatcher holds pmu across solves
	// and takes smu to record them, and nothing may nest the other way.
	//
	//sqpr:lock-order Service.mu < Service.pmu < Service.smu
	smu   sync.Mutex
	stats ServiceStats //sqpr:guarded-by smu

	// Durable-service state (nil/zero for plain NewService services; see
	// OpenService in durable.go). The dispatcher journals through walLog
	// before acknowledging; walErr wedges the service after the first
	// journal failure so memory never silently diverges from the log.
	walLog    *wal.Log    //sqpr:guarded-by pmu
	porter    StatePorter //sqpr:guarded-by pmu
	last      State       //sqpr:guarded-by pmu
	walErr    error       //sqpr:guarded-by pmu
	sinceSnap int         //sqpr:guarded-by pmu

	// wedge mirrors walErr for lock-free reads: the wedge is sticky (set
	// once, never cleared), so Wedged — and through it readiness probes —
	// must not queue behind pmu, which the dispatcher holds across whole
	// planner solves.
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
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
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
// dispatcher has applied the request (possibly coalesced with concurrent
// submits into one joint solve) or until ctx is done — but note a request
// whose ctx expires after the dispatcher picked it up is still planned under
// the solver deadline derived from that ctx. Returns ErrQueueFull
// immediately when the queue is full.
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
// the dispatcher mutates concurrently.
func (s *Service) Assignment() *dsps.Assignment {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.p.Assignment().Clone()
}

// AdmittedQueries returns the sorted list of currently admitted query
// streams when the wrapped planner implements StatePorter (every planner in
// this repository does); nil otherwise. The list is a copy.
func (s *Service) AdmittedQueries() []dsps.StreamID {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p, ok := s.p.(StatePorter); ok {
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

// dispatch is the single dispatcher goroutine: it drains the queue, skips
// requests whose ctx already expired, coalesces runs of plain submits and
// applies everything else in arrival order.
func (s *Service) dispatch() {
	defer close(s.done)
	for {
		r, ok := <-s.reqs
		if !ok {
			return
		}
		pending := s.drainAfter(r)
		for len(pending) > 0 {
			pending = s.applyNext(pending)
		}
	}
}

// drainAfter collects the requests already queued behind first without
// blocking, so one dispatcher pass sees everything that arrived while the
// previous planner call ran.
func (s *Service) drainAfter(first *request) []*request {
	pending := []*request{first}
	//sqpr:noctx non-blocking drain: the default case returns on the first empty poll
	for {
		select {
		case r, ok := <-s.reqs:
			if !ok {
				return pending
			}
			pending = append(pending, r)
		default:
			return pending
		}
	}
}

// applyNext applies the head of pending — a coalesced run of plain submits,
// or a single request — and returns the remaining tail.
func (s *Service) applyNext(pending []*request) []*request {
	head := pending[0]

	// A dead ctx answers without touching the planner.
	if err := head.ctx.Err(); err != nil {
		head.err = err
		s.finishExpired(head)
		return pending[1:]
	}

	if head.kind != TraceSubmit || !coalescible(head) {
		s.applySingle(head)
		return pending[1:]
	}

	// Coalesce the leading run of live, plain submits into one joint solve.
	group := []*request{head}
	rest := pending[1:]
	for len(rest) > 0 && len(group) < s.cfg.MaxBatch {
		r := rest[0]
		if r.kind != TraceSubmit || !coalescible(r) || r.ctx.Err() != nil {
			break
		}
		group = append(group, r)
		rest = rest[1:]
	}
	if invariant.Enabled && len(group) > s.cfg.MaxBatch {
		invariant.Failf("service: coalesced %d submits past the MaxBatch cap %d", len(group), s.cfg.MaxBatch)
	}
	s.applySubmitGroup(group)
	return rest
}

// coalescible reports whether a submit can join a coalesced batch: only
// option-free submits qualify, so per-call host restrictions, explicit
// batches, timeouts or validation overrides never leak across requests.
func coalescible(r *request) bool {
	if len(r.opts) == 0 {
		return true
	}
	c := Apply(r.opts)
	return c.Timeout == 0 && c.Hosts == nil && c.Batch == nil && c.Validate == nil
}

// applySingle applies one non-coalesced request to the planner. For a
// durable service the outcome is journaled before finish acknowledges the
// caller; a journal failure replaces the reply with the wedge error.
func (s *Service) applySingle(r *request) {
	s.pmu.Lock()
	if err := s.wedged(); err != nil {
		s.pmu.Unlock()
		r.err = err
		s.finish(r)
		return
	}
	switch r.kind {
	case TraceSubmit:
		r.res, r.err = s.p.Submit(r.ctx, r.q, r.opts...)
		s.recordSolve(1)
		s.trace(Trace{Kind: TraceSubmit, Queries: []dsps.StreamID{r.q}, Err: r.err})
	case TraceRemove:
		r.err = s.p.Remove(r.q)
		s.trace(Trace{Kind: TraceRemove, Queries: []dsps.StreamID{r.q}, Err: r.err})
	case TraceRepair:
		r.rr, r.err = s.p.Repair(r.ctx, r.evs, r.opts...)
		s.trace(Trace{Kind: TraceRepair, Events: r.evs, Err: r.err})
	}
	if jerr := s.journal(r.kind); jerr != nil {
		r.err = jerr
	}
	s.pmu.Unlock()
	s.finish(r)
}

// applySubmitGroup plans a coalesced run of submits as one WithBatch joint
// solve. The solve runs under the earliest ctx deadline of the group, so no
// member's deadline is overrun by riding in a batch. On a planner error the
// group falls back to individual submits in arrival order, so one poisoned
// member (unknown stream, cancelled ctx) cannot fail its neighbours.
func (s *Service) applySubmitGroup(group []*request) {
	if len(group) == 1 {
		s.applySingle(group[0])
		return
	}
	qs := make([]dsps.StreamID, len(group))
	for i, r := range group {
		qs[i] = r.q
	}

	ctx, cancel := groupContext(group)
	defer cancel()

	opts := []SubmitOption{WithBatch(qs[1:]...)}
	if s.cfg.BatchTimeout > 0 {
		opts = append(opts, WithTimeout(s.cfg.BatchTimeout))
	}

	s.pmu.Lock()
	if werr := s.wedged(); werr != nil {
		s.pmu.Unlock()
		for _, r := range group {
			r.err = werr
			s.finish(r)
		}
		return
	}
	res, err := s.p.Submit(ctx, qs[0], opts...)
	if err != nil {
		// Joint solve failed as a whole: re-run the members one by one so
		// each request gets its own verdict under its own ctx.
		for _, r := range group {
			if e := r.ctx.Err(); e != nil {
				r.err = e
				continue
			}
			r.res, r.err = s.p.Submit(r.ctx, r.q, r.opts...)
			s.recordSolve(1)
		}
		for _, r := range group {
			s.trace(Trace{Kind: TraceSubmit, Queries: []dsps.StreamID{r.q}, Err: r.err})
		}
		if jerr := s.journal(TraceSubmit); jerr != nil {
			for _, r := range group {
				r.err = jerr
			}
		}
		s.pmu.Unlock()
		for _, r := range group {
			s.finish(r)
		}
		return
	}

	// One joint result: fan the shared solver telemetry out to every
	// member, with per-member admission looked up on the planner.
	for _, r := range group {
		r.res = res
		r.res.Admitted = s.p.Admitted(r.q)
		if r.res.Admitted {
			r.res.Reason = ReasonNone
		} else if r.res.Reason == ReasonNone {
			r.res.Reason = ReasonNoFeasiblePlan
		}
	}
	s.recordSolve(len(group))
	s.trace(Trace{Kind: TraceSubmit, Queries: qs, Err: nil})
	if s.cfg.RetryRejected {
		// Straggler retry: members the joint solve left out get the solo
		// submission they would have issued without the service.
		for _, r := range group {
			if r.res.Admitted || r.ctx.Err() != nil {
				continue
			}
			r.res, r.err = s.p.Submit(r.ctx, r.q, r.opts...)
			s.recordSolve(1)
			s.trace(Trace{Kind: TraceSubmit, Queries: []dsps.StreamID{r.q}, Err: r.err})
		}
	}
	if jerr := s.journal(TraceSubmit); jerr != nil {
		for _, r := range group {
			r.err = jerr
		}
	}
	s.pmu.Unlock()
	for _, r := range group {
		s.finish(r)
	}
}

// groupContext derives the joint solve's context: no member's cancellation
// alone aborts the batch, but the earliest deadline bounds it.
func groupContext(group []*request) (context.Context, context.CancelFunc) {
	var earliest time.Time
	for _, r := range group {
		if d, ok := r.ctx.Deadline(); ok && (earliest.IsZero() || d.Before(earliest)) {
			earliest = d
		}
	}
	if earliest.IsZero() {
		//sqpr:ctxroot batch ctx is deliberately detached: no single member's cancellation may abort the joint solve
		return context.WithCancel(context.Background())
	}
	//sqpr:ctxroot batch ctx is deliberately detached: no single member's cancellation may abort the joint solve
	return context.WithDeadline(context.Background(), earliest)
}

// recordSolve folds one joint planning call over n submits into the batch
// stats. Callers hold pmu; the stats mutex still applies because readers
// don't.
func (s *Service) recordSolve(n int) {
	if invariant.Enabled && (n < 1 || n > s.cfg.MaxBatch) {
		invariant.Failf("service: solve batch size %d outside [1, %d]", n, s.cfg.MaxBatch)
	}
	s.smu.Lock()
	s.stats.Solves++
	s.stats.BatchedSubmits += n
	if n > s.stats.MaxBatch {
		s.stats.MaxBatch = n
	}
	if invariant.Enabled && (s.stats.BatchedSubmits < s.stats.Solves || s.stats.MaxBatch > s.cfg.MaxBatch) {
		invariant.Failf("service: stats accounting drifted: %d batched submits over %d solves, max batch %d (cap %d)",
			s.stats.BatchedSubmits, s.stats.Solves, s.stats.MaxBatch, s.cfg.MaxBatch)
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

// trace invokes the configured audit callback. Callers hold pmu, so traces
// are delivered in exact application order.
func (s *Service) trace(t Trace) {
	if s.cfg.OnTrace != nil {
		s.cfg.OnTrace(t)
	}
}
