package engine

import "sqpr/internal/dsps"

// host executes operators and routes tuples. Each host runs a single
// goroutine draining its inbox (the paper's DISSP hosts use worker pools;
// one worker per host keeps the simulation deterministic enough to test
// while preserving the host-level concurrency of the real system).
type host struct {
	id    dsps.HostID
	e     *Engine
	inbox chan Tuple
	ops   map[dsps.OperatorID]*opInstance
	byIn  map[dsps.StreamID][]*opInstance // local consumers per stream
	fwd   map[dsps.StreamID][]dsps.HostID // flow routing (stream → hosts)
	dlv   map[dsps.StreamID]bool          // client deliveries
	local chan Tuple                      // tuples produced locally
}

func newHost(e *Engine, id dsps.HostID) *host {
	return &host{
		id:    id,
		e:     e,
		inbox: make(chan Tuple, inboxDepth),
		ops:   make(map[dsps.OperatorID]*opInstance),
		byIn:  make(map[dsps.StreamID][]*opInstance),
		fwd:   make(map[dsps.StreamID][]dsps.HostID),
		dlv:   make(map[dsps.StreamID]bool),
		local: make(chan Tuple, inboxDepth),
	}
}

// installOperator instantiates an operator and registers it as a local
// consumer of its input streams.
func (h *host) installOperator(op dsps.OperatorID) {
	inst := newOpInstance(h.e, &h.e.sys.Operators[op])
	h.ops[op] = inst
	for _, in := range h.e.sys.Operators[op].Inputs {
		h.byIn[in] = append(h.byIn[in], inst)
	}
}

func (h *host) run() {
	defer h.e.wg.Done()
	for {
		select {
		case <-h.e.ctx.Done():
			return
		case t := <-h.inbox:
			h.process(t)
		case t := <-h.local:
			h.process(t)
		}
	}
}

// ingestLocal enqueues a locally produced tuple (base source or operator
// output) for processing on this host.
func (h *host) ingestLocal(t Tuple) {
	select {
	case h.local <- t:
	case <-h.e.ctx.Done():
	default:
		h.e.mon.recordDrop(h.id)
	}
}

// process routes one tuple: to local operators, to downstream hosts, and to
// the client delivery channel.
func (h *host) process(t Tuple) {
	// Local operator consumption.
	for _, inst := range h.byIn[t.Stream] {
		outs := inst.consume(t)
		h.e.mon.recordCompute(h.id, inst.op.Cost)
		for _, out := range outs {
			h.ingestLocal(out)
		}
	}
	// Inter-host forwarding (the x variables, including relays).
	for _, to := range h.fwd[t.Stream] {
		h.e.send(h.id, to, t)
	}
	// Client delivery (the d variables).
	if h.dlv[t.Stream] {
		h.e.mon.recordDelivery(h.id, h.e.sys.Streams[t.Stream].Rate)
		select {
		case h.e.results <- t:
		default:
		}
	}
}
