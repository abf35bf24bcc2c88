// Package engine is a miniature distributed stream processing engine — the
// stand-in for the paper's DISSP prototype (§IV-C) and its Emulab
// deployment (§V-B). It instantiates query plans produced by any planner:
// hosts run operators over typed tuples in sliding windows, streams flow
// between hosts according to the plan's flow variables, base streams are
// injected by rate-controlled sources, and a per-host resource monitor
// reports CPU and network consumption back to the planner, closing the
// plan → deploy → measure loop of Fig. 3.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// ErrAlreadyDeployed reports a Deploy on an engine that is already running a
// plan. Stop the engine first; a stopped engine can be redeployed.
var ErrAlreadyDeployed = errors.New("engine already deployed")

// Tuple is one data item of a stream.
type Tuple struct {
	Stream dsps.StreamID
	// Key is the join attribute.
	Key int64
	// Value is an opaque payload (e.g. a measurement).
	Value float64
	// SeqNo orders tuples within their source.
	SeqNo int64
	// BornNanos is the source injection time (UnixNano); it rides along
	// through joins and relays so delivery latency can be measured — the
	// quantity the paper's load-balancing discussion (§II-C) is about.
	BornNanos int64
}

// Config tunes the engine.
type Config struct {
	// KeyDomain bounds generated join keys; smaller domains join more.
	KeyDomain int64
}

// DefaultConfig returns sensible demo settings.
func DefaultConfig() Config {
	return Config{KeyDomain: 32}
}

const (
	// tuplesPerRateUnit converts a stream's model rate into tuples/sec:
	// a stream with rate 10 emits 20 tuples/sec.
	tuplesPerRateUnit = 2
	// windowSize is the number of tuples each join retains per input.
	windowSize = 64
	// inboxDepth is the per-host network queue length.
	inboxDepth = 1024
)

// Engine executes one deployed assignment.
type Engine struct {
	sys *dsps.System
	cfg Config

	hosts   []*host
	down    []atomic.Bool // host failure flags (index = HostID)
	mon     *Monitor
	kernels map[dsps.OperatorID]UnaryKernel
	results chan Tuple
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// mu guards the deploy/stop lifecycle: running flips on Deploy and off
	// only after Stop has joined every goroutine and closed results, so a
	// redeploy can never race goroutines of the previous deployment.
	mu      sync.Mutex
	running bool //sqpr:guarded-by mu

	// churnMu serialises ApplyChurn calls so the dataplane and the planner
	// observe churn events in one order: without it, two concurrent calls
	// with conflicting events (fail vs recover of the same host) could land
	// in opposite orders on the engine's atomics and in the planner's
	// repair queue, leaving the two permanently inconsistent.
	churnMu sync.Mutex
}

// New creates an engine for the system (not yet deployed).
func New(sys *dsps.System, cfg Config) *Engine {
	if cfg.KeyDomain <= 0 {
		cfg.KeyDomain = 32
	}
	return &Engine{
		sys:  sys,
		cfg:  cfg,
		down: make([]atomic.Bool, sys.NumHosts()),
		mon:  NewMonitor(sys),
	}
}

// FailHost simulates a crash of host h: its queued and future tuples are
// discarded (counted as drops), it stops computing and delivering, and
// tuples sent to it are lost in flight — the churn the repair planner
// reacts to. Safe to call at any time, including before Deploy.
func (e *Engine) FailHost(h dsps.HostID) {
	if !e.down[h].Swap(true) {
		e.mon.recordHostEvent(true)
	}
}

// RecoverHost brings a failed host back: it resumes processing and its base
// sources resume injecting. Operators and routes installed at Deploy time
// are still in place, matching a process restart on the same plan.
func (e *Engine) RecoverHost(h dsps.HostID) {
	if e.down[h].Swap(false) {
		e.mon.recordHostEvent(false)
	}
}

// HostDown reports whether host h is currently failed.
func (e *Engine) HostDown(h dsps.HostID) bool { return e.down[h].Load() }

// HostStates returns the engine's observed availability of every host —
// the "world as it is" view a reconciliation loop (plan.Service.Reconcile)
// diffs against the planner's intent. The engine only distinguishes
// up/down; draining is a planner-side notion.
func (e *Engine) HostStates() []dsps.HostState {
	states := make([]dsps.HostState, len(e.down))
	for h := range e.down {
		if e.down[h].Load() {
			states[h] = dsps.HostDown
		}
	}
	return states
}

// ApplyChurn is the engine's service-based churn entry point: it forwards
// the events to the planner's Repair and then mirrors the system's recorded
// host availability onto the running engine — so dataplane and plan change
// together, planner first. The mirror reads the shared system's host states
// rather than guessing from the error: Repair commits host-state
// transitions even when its re-planning step later fails or overruns a
// deadline, and a malformed event set commits nothing at all, so the system
// record — not error identity — is the truth about what the planner
// applied. The planner must operate on the same System the engine runs.
//
// When the request never completed through the planner — backpressure
// (plan.ErrQueueFull), a closed service, or a context that died while the
// request was queued — the engine is left untouched: there is no
// happens-before edge with the planner's state, so reading it would race,
// and in the worst case (a ctx that expired just as the dispatcher picked
// the repair up) the engine merely lags in the benign direction — hosts the
// planner stopped using keep running until the caller retries. An event set
// the planner refused (plan.ErrInvalidEvent), such as one naming a host
// outside the system, changed nothing, so the engine is left as it is too.
//
// Pass a plan.Service as the planner and the call is safe from any
// goroutine — monitors and operators can report failures concurrently while
// clients keep submitting. Concurrent ApplyChurn calls are serialised
// against each other, so conflicting events for the same host reach the
// planner and the dataplane in one order. Drain and drift events touch only
// the planner; the engine keeps executing the still-valid allocations until
// a new plan is deployed.
func (e *Engine) ApplyChurn(ctx context.Context, p plan.QueryPlanner, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	rr, err := p.Repair(ctx, events, opts...)
	if err != nil && (errors.Is(err, plan.ErrQueueFull) || errors.Is(err, plan.ErrServiceClosed) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, plan.ErrInvalidEvent)) {
		return rr, err
	}
	for _, ev := range events {
		switch ev.Kind {
		case plan.HostFailed, plan.HostRecovered:
			// Mirror what the planner actually recorded, not what the event
			// asked for: a pre-commit validation failure leaves the system
			// (and so the engine) unchanged.
			if e.sys.Hosts[ev.Host].State == dsps.HostDown {
				e.FailHost(ev.Host)
			} else {
				e.RecoverHost(ev.Host)
			}
		}
	}
	return rr, err
}

// Monitor exposes the engine's resource monitor.
func (e *Engine) Monitor() *Monitor { return e.mon }

// Results returns the client delivery channel carrying tuples of all
// provided result streams. Valid after Deploy; Stop closes it after every
// producer has exited, so a consumer ranging over it terminates.
func (e *Engine) Results() <-chan Tuple {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.results
}

// Deploy instantiates the assignment: one goroutine per host, per base
// source. The assignment must be feasible (Validate passes); Deploy checks.
// Deploying over a live engine fails with ErrAlreadyDeployed — goroutines of
// the previous deployment still send on the old results channel, so
// reallocating it under them would strand consumers. Stop first; a stopped
// engine can be deployed again (with a fresh Results channel).
func (e *Engine) Deploy(ctx context.Context, a *dsps.Assignment) error {
	if err := a.Validate(e.sys); err != nil {
		return fmt.Errorf("engine: refusing to deploy infeasible plan: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return fmt.Errorf("engine: %w", ErrAlreadyDeployed)
	}
	e.ctx, e.cancel = context.WithCancel(ctx)
	e.results = make(chan Tuple, 4096)

	n := e.sys.NumHosts()
	e.hosts = make([]*host, n)
	for h := 0; h < n; h++ {
		e.hosts[h] = newHost(e, dsps.HostID(h))
	}

	// Routing tables from the assignment.
	for _, f := range a.Flows {
		e.hosts[f.From].fwd[f.Stream] = append(e.hosts[f.From].fwd[f.Stream], f.To)
	}
	for _, pl := range a.Ops {
		e.hosts[pl.Host].installOperator(pl.Op)
	}
	for _, p := range a.Provides {
		e.hosts[p.Host].dlv[p.Stream] = true
	}

	// Start hosts.
	for _, h := range e.hosts {
		e.wg.Add(1)
		go h.run()
	}
	// Start base sources for streams actually consumed somewhere.
	needed := e.neededBaseStreams(a)
	for s := range needed {
		for _, bh := range e.sys.BaseHosts(s) {
			e.wg.Add(1)
			go e.runSource(s, bh)
			break // one injection point suffices
		}
	}
	e.running = true
	return nil
}

// neededBaseStreams finds the base streams consumed by placed operators or
// forwarded by flows.
func (e *Engine) neededBaseStreams(a *dsps.Assignment) map[dsps.StreamID]bool {
	need := make(map[dsps.StreamID]bool)
	for _, pl := range a.Ops {
		for _, in := range e.sys.Operators[pl.Op].Inputs {
			if e.sys.Streams[in].IsBase() {
				need[in] = true
			}
		}
	}
	for _, f := range a.Flows {
		if e.sys.Streams[f.Stream].IsBase() {
			need[f.Stream] = true
		}
	}
	for _, p := range a.Provides {
		if e.sys.Streams[p.Stream].IsBase() {
			need[p.Stream] = true
		}
	}
	return need
}

// runSource injects base-stream tuples at the stream's model rate.
func (e *Engine) runSource(s dsps.StreamID, at dsps.HostID) {
	defer e.wg.Done()
	rate := e.sys.Streams[s].Rate * tuplesPerRateUnit // tuples/sec
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var seq int64
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-tick.C:
			if e.down[at].Load() {
				continue // failed hosts inject nothing
			}
			seq++
			t := Tuple{
				Stream:    s,
				Key:       seq % e.cfg.KeyDomain,
				Value:     float64(seq),
				SeqNo:     seq,
				BornNanos: time.Now().UnixNano(),
			}
			e.hosts[at].ingestLocal(t)
		}
	}
}

// Stop terminates all host and source goroutines, waits for them, and then
// closes the Results channel exactly once — so a consumer ranging over
// Results terminates instead of blocking forever. Stop is idempotent: a
// second Stop (or a Stop before Deploy) returns immediately without
// panicking or double-closing.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.running {
		return
	}
	e.cancel()
	e.wg.Wait()
	close(e.results)
	e.running = false
}

// send crosses the network — in process, straight into the destination
// host's inbox — and the monitor accounts the transfer. Tuples to or from a
// failed host are lost in flight and counted as drops at the sender; a full
// inbox drops at the receiver.
func (e *Engine) send(from, to dsps.HostID, t Tuple) {
	if e.down[from].Load() || e.down[to].Load() {
		e.mon.recordDrop(from)
		return
	}
	e.mon.recordTransfer(from, to, e.sys.Streams[t.Stream].Rate)
	select {
	case e.hosts[to].inbox <- t:
	case <-e.ctx.Done():
	default:
		e.mon.recordDrop(to)
	}
}
