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
	"time"

	"sqpr/internal/dsps"
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
	// through joins and relays so a consumer of Results can measure
	// delivery latency — the quantity the paper's load-balancing
	// discussion (§II-C) is about.
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
	mon     *Monitor
	results chan Tuple
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// mu guards the deploy/stop lifecycle: running flips on Deploy and off
	// only after Stop has joined every goroutine and closed results, so a
	// redeploy can never race goroutines of the previous deployment.
	mu      sync.Mutex
	running bool //sqpr:guarded-by mu
}

// New creates an engine for the system (not yet deployed).
func New(sys *dsps.System, cfg Config) *Engine {
	if cfg.KeyDomain <= 0 {
		cfg.KeyDomain = 32
	}
	return &Engine{
		sys: sys,
		cfg: cfg,
		mon: NewMonitor(sys),
	}
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
// host's inbox — and the monitor accounts the transfer. A full inbox drops
// at the receiver.
func (e *Engine) send(from, to dsps.HostID, t Tuple) {
	e.mon.recordTransfer(from, to, e.sys.Streams[t.Stream].Rate)
	select {
	case e.hosts[to].inbox <- t:
	case <-e.ctx.Done():
	default:
		e.mon.recordDrop(to)
	}
}
