// Package engine is a miniature stream processing engine — the stand-in
// for the paper's DISSP prototype (§IV-C) and its Emulab deployment
// (§V-B). It executes query plans produced by any planner: hosts run
// operators over keyed tuples in sliding windows, streams flow between
// hosts along the plan's flow variables, base streams are injected at
// their model rates, and the run reports per-host CPU and network
// consumption back to the planner, closing the plan → deploy → measure
// loop of Fig. 3.
//
// The engine runs in simulated time on one loop: the same plan and
// duration always yield the same Report.
package engine

import (
	"fmt"

	"sqpr/internal/dsps"
)

const (
	// tuplesPerRateUnit converts a stream's model rate into tuples per
	// simulated second: a stream with rate 10 emits 20 tuples/sec.
	tuplesPerRateUnit = 2
	// keyDomain bounds the join keys sources generate: the n-th tuple of
	// a base stream carries key n mod keyDomain.
	keyDomain = 32
	// windowSize is the number of tuples each join retains per input.
	windowSize = 64
)

// Report is what one run measured. The per-host slices are indexed by
// host id.
type Report struct {
	// CPUWork is the operator cost charged per host: every operator
	// invocation adds its operator's cost.
	CPUWork []float64
	// Sent and Received are rate-weighted network transfers (flows,
	// relays included). Summed over hosts they balance, since no tuple is
	// in flight or lost when a run ends.
	Sent, Received []float64
	// Delivered is the rate-weighted client delivery volume per host —
	// local hand-offs to result consumers, disjoint from Sent.
	Delivered []float64
	// ComputeSamples counts the operator invocations folded into CPUWork,
	// so CPUWork/ComputeSamples is the mean per-invocation cost.
	ComputeSamples int64
	// Results counts the result tuples delivered per provided stream.
	Results map[dsps.StreamID]int64
}

// host is one host's routing tables.
type host struct {
	byIn map[dsps.StreamID][]*opInstance // local consumers per stream
	fwd  map[dsps.StreamID][]dsps.HostID // flows (stream → hosts)
	dlv  map[dsps.StreamID]bool          // client deliveries
}

// run is one execution of an assignment.
type run struct {
	sys   *dsps.System
	hosts []host
	rep   Report
}

// source is one injected base stream.
type source struct {
	stream  dsps.StreamID
	at      dsps.HostID
	perSec  float64 // tuples per simulated second
	n, sent int64   // tuples due within the run, tuples emitted
}

// Run executes assignment a on the system for the given simulated
// seconds and reports what it measured. The assignment must be feasible;
// Run validates it first. Each needed base stream emits its k-th tuple at
// k/(rate × tuplesPerRateUnit) seconds, emissions are processed in (time,
// stream) order, and each tuple runs to completion, with no network
// delay, through local operators, flows and client deliveries.
func Run(sys *dsps.System, a *dsps.Assignment, seconds float64) (Report, error) {
	if err := a.Validate(sys); err != nil {
		return Report{}, fmt.Errorf("engine: refusing to deploy infeasible plan: %w", err)
	}
	n := sys.NumHosts()
	r := &run{
		sys:   sys,
		hosts: make([]host, n),
		rep: Report{
			CPUWork:   make([]float64, n),
			Sent:      make([]float64, n),
			Received:  make([]float64, n),
			Delivered: make([]float64, n),
			Results:   make(map[dsps.StreamID]int64),
		},
	}
	for h := range r.hosts {
		r.hosts[h] = host{
			byIn: make(map[dsps.StreamID][]*opInstance),
			fwd:  make(map[dsps.StreamID][]dsps.HostID),
			dlv:  make(map[dsps.StreamID]bool),
		}
	}
	for _, f := range a.Flows {
		r.hosts[f.From].fwd[f.Stream] = append(r.hosts[f.From].fwd[f.Stream], f.To)
	}
	for _, pl := range a.Ops {
		op := &sys.Operators[pl.Op]
		inst := newOpInstance(op)
		for _, in := range op.Inputs {
			r.hosts[pl.Host].byIn[in] = append(r.hosts[pl.Host].byIn[in], inst)
		}
	}
	for _, p := range a.Provides {
		r.hosts[p.Host].dlv[p.Stream] = true
	}

	// One injection point per needed base stream, in stream order.
	var srcs []source
	var due int64
	for s, st := range sys.Streams {
		id := dsps.StreamID(s)
		bh := sys.BaseHosts(id)
		if !st.IsBase() || len(bh) == 0 || st.Rate <= 0 || !r.needed(id) {
			continue
		}
		perSec := st.Rate * tuplesPerRateUnit
		src := source{stream: id, at: bh[0], perSec: perSec, n: int64(perSec * seconds)}
		srcs = append(srcs, src)
		due += src.n
	}
	for ; due > 0; due-- {
		// The next emission is the earliest due one, the lowest stream
		// on a tie: k1/p1 < k2/p2 ⇔ k1·p2 < k2·p1.
		var next *source
		for i := range srcs {
			s := &srcs[i]
			if s.sent < s.n && (next == nil || float64(s.sent+1)*next.perSec < float64(next.sent+1)*s.perSec) {
				next = s
			}
		}
		next.sent++
		r.process(next.at, next.stream, next.sent%keyDomain)
	}
	return r.rep, nil
}

// needed reports whether some host consumes, forwards or delivers s.
func (r *run) needed(s dsps.StreamID) bool {
	for _, hs := range r.hosts {
		if len(hs.byIn[s]) > 0 || len(hs.fwd[s]) > 0 || hs.dlv[s] {
			return true
		}
	}
	return false
}

// process runs one tuple of stream s with the given key on host h to
// completion: through the local operators that consume s (and on through
// whatever they emit), along the flows of s (the x variables, relays
// included), and to the client if h provides s (the d variables).
func (r *run) process(h dsps.HostID, s dsps.StreamID, key int64) {
	hs := &r.hosts[h]
	for _, inst := range hs.byIn[s] {
		r.rep.CPUWork[h] += inst.op.Cost
		r.rep.ComputeSamples++
		if inst.consume(s, key) {
			r.process(h, inst.op.Output, key)
		}
	}
	rate := r.sys.Streams[s].Rate
	for _, to := range hs.fwd[s] {
		r.rep.Sent[h] += rate
		r.rep.Received[to] += rate
		r.process(to, s, key)
	}
	if hs.dlv[s] {
		r.rep.Delivered[h] += rate
		r.rep.Results[s]++
	}
}
