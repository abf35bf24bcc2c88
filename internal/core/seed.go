package core

import (
	"context"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/milp"
)

// seed produces the call's warm start: the current allocation (always
// feasible for the new model thanks to (IV.9)) extended, when possible, with
// a greedy plan that admits the new queries the way a simple planner would —
// each assembled on a single host, reusing streams that already exist. It
// needs the layout and the usage ledger, never the model, so submit and
// repairChunk run it before deciding whether to build one; vectorOf turns it
// into the solver's incumbent. It starts from the ledger selectHosts summed
// over the current allocation and adds what it accepts, so a builder is
// seeded once.
//
// The greedy probes many partial plans per query; it tracks resource usage
// incrementally and rolls trial placements back through an undo journal, so
// probing never clones the assignment or recomputes usage from scratch.
//
// planStreamAt is an exponential backtracking search (producers × hosts,
// recursing through operator inputs), so the greedy runs under a probe
// budget shared across the call, armed by seedArm (on contended joint
// models the unbraked search could take minutes). It reads no clock, so a
// seed is the same whatever the call's timeout; it polls ctx every 256
// probes and stops once ctx is cancelled, and its caller then discards it.
// A truncated greedy is harmless: the seed is the current allocation
// extended with however many queries were admitted before the brake, still
// a feasible warm start.
func (b *builder) seed(ctx context.Context) *dsps.Assignment {
	cand := b.planner.Assignment().Clone()
	b.seedArm()
	for _, q := range b.queries {
		if _, ok := cand.Provider(q); ok {
			continue
		}
		if b.seedProbes <= 0 {
			break
		}
		b.greedyAdmit(ctx, cand, q)
	}
	return cand
}

// seedProbeBudget caps planStreamAt invocations per armed greedy run, the
// seed's only brake. A probe costs about 0.8 µs on the sqpr-sim Fig. 5c
// workload at arity 5 (its slowest seed took 336k probes in 250–280 ms on
// a 2-core VM), so the cap bounds one greedy run at about 0.85 s there; no
// seed of the sqpr-sim figures or the benchmark workloads reaches it. The
// pathological joint-batch cases it exists for burned billions of probes.
const seedProbeBudget = 1 << 20

// seedArm resets the probe budget for one run and sizes planStreamAt's
// cycle guard to the system. Every greedy entry point must arm explicitly:
// the builder is pooled across calls, and a spent budget from a previous
// call would otherwise truncate the next greedy on sight.
func (b *builder) seedArm() {
	b.seedProbes = seedProbeBudget
	if n := b.sys.NumHosts() * len(b.sys.Streams); len(b.visiting) != n {
		b.visiting = make([]bool, n)
	}
}

// seedHostsAt returns the two pooled host-scratch buffers for one
// planStreamAt recursion depth: the assembly-order list and a second buffer
// used first for ranking remote hosts and then for the preferHost reorder.
// The stacks grow to the maximum recursion depth once and are reused by
// every later probe.
//
//sqpr:hotpath
func (b *builder) seedHostsAt(depth int) (try, aux *[]dsps.HostID) {
	for len(b.tryStack) <= depth {
		//sqpr:amortized the stacks grow to max recursion depth once
		b.tryStack = append(b.tryStack, nil)
		b.auxStack = append(b.auxStack, nil) //sqpr:amortized
	}
	return &b.tryStack[depth], &b.auxStack[depth]
}

// seedExit unwinds one planStreamAt recursion level.
//
//sqpr:hotpath
func (b *builder) seedExit() { b.seedDepth-- }

// seedLeave takes availability k off planStreamAt's current path.
//
//sqpr:hotpath
func (b *builder) seedLeave(k int) { b.visiting[k] = false }

// headroom is the spare CPU of a candidate host under the ledger's trial
// usage — the greedy's ranking key.
//
//sqpr:hotpath
func (b *builder) headroom(h dsps.HostID) float64 {
	return b.sys.Hosts[h].CPU - b.track.CPU[h]
}

// sortHostsByHeadroom orders hosts by spare CPU descending, HostID
// ascending on ties — the same total order the greedy always used, as an
// allocation-free insertion sort (the lists are a handful of candidate
// hosts; sort.Slice's comparator closure was the only heap traffic).
//
//sqpr:hotpath
func (b *builder) sortHostsByHeadroom(s []dsps.HostID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			hj, hp := b.headroom(s[j]), b.headroom(s[j-1])
			if hj < hp || (hj == hp && s[j] >= s[j-1]) {
				break
			}
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// sortScoredDesc orders candidate plans by score descending, HostID
// ascending on ties (insertion sort, see sortHostsByHeadroom).
//
//sqpr:hotpath
func sortScoredDesc(s []scored) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			if s[j].score < s[j-1].score ||
				(s[j].score == s[j-1].score && s[j].h >= s[j-1].h) {
				break
			}
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// journal records trial mutations so a probe can be rolled back without
// cloning the assignment.
type journalEntry struct {
	isOp bool
	flow dsps.Flow
	op   dsps.Placement
}

// applyFlow adds a flow to the trial, ledger and journal.
//
//sqpr:hotpath
func (b *builder) applyFlow(trial *dsps.Assignment, f dsps.Flow) {
	trial.AddFlow(f)
	b.track.AddFlow(f)
	b.journal = append(b.journal, journalEntry{flow: f}) //sqpr:amortized pooled
}

// applyOp adds an operator placement to the trial, ledger and journal.
//
//sqpr:hotpath
func (b *builder) applyOp(trial *dsps.Assignment, pl dsps.Placement) {
	trial.AddOp(pl)
	b.track.AddOp(pl)
	b.journal = append(b.journal, journalEntry{isOp: true, op: pl}) //sqpr:amortized pooled
}

// rollback undoes journal entries beyond mark, newest first.
//
//sqpr:hotpath
func (b *builder) rollback(trial *dsps.Assignment, mark int) {
	for i := len(b.journal) - 1; i >= mark; i-- {
		e := b.journal[i]
		if e.isOp {
			trial.DeleteOp(e.op)
			b.track.RemoveOp(e.op)
		} else {
			trial.DeleteFlow(e.flow)
			b.track.RemoveFlow(e.flow)
		}
	}
	b.journal = b.journal[:mark]
}

// scored is one resource-feasible candidate plan of greedyAdmit.
type scored struct {
	h     dsps.HostID
	score float64
}

// greedyAdmit tries to admit query q into cand on a single assembly host;
// it mutates cand only on success. Hosts are probed on the shared trial
// through the journal; the best-scoring resource-feasible plan is kept.
//
//sqpr:hotpath
func (b *builder) greedyAdmit(ctx context.Context, cand *dsps.Assignment, q dsps.StreamID) bool {
	order := b.hostScratch[:0]
	order = append(order, b.hosts...) //sqpr:amortized pooled on the builder
	b.hostScratch = order
	b.sortHostsByHeadroom(order)

	results := b.scoredScratch[:0]
	for _, h := range order {
		if b.seedProbes <= 0 {
			break
		}
		mark := len(b.journal)
		if !b.planStreamAt(ctx, cand, q, h) {
			b.rollback(cand, mark)
			continue
		}
		// Deliver the result to the client from h (out-bandwidth only; the
		// provide itself is added once the winner is chosen).
		if !b.track.FitsProvide(h, q, dsps.FitTol) {
			b.rollback(cand, mark)
			continue
		}
		results = append(results, scored{h, b.scoreResources()}) //sqpr:amortized
		b.rollback(cand, mark)
	}
	b.scoredScratch = results
	if len(results) == 0 {
		return false
	}
	// All candidate plans admit q, so λ1 cancels out of the comparison and
	// the resource score alone ranks them.
	sortScoredDesc(results)
	for _, r := range results {
		mark := len(b.journal)
		if !b.planStreamAt(ctx, cand, q, r.h) {
			b.rollback(cand, mark)
			continue
		}
		cand.SetProvide(q, r.h)
		b.track.AddProvide(r.h, q)
		if b.accepts(cand, mark, dsps.Provide{Stream: q, Host: r.h}) {
			b.journal = b.journal[:0]
			return true
		}
		cand.DeleteProvide(q)
		b.track.RemoveProvide(r.h, q)
		b.rollback(cand, mark)
	}
	return false
}

// accepts reports whether Validate would accept cand: the allocation the
// greedy run started from, valid by the ledger's invariant, extended by
// the journal's entries beyond mark and the provide p. Only those pieces
// and the budgets they touch are checked (dsps.ValidateExtension).
//
//sqpr:hotpath
func (b *builder) accepts(cand *dsps.Assignment, mark int, p dsps.Provide) bool {
	b.ext.Reset()
	for _, e := range b.journal[mark:] {
		if e.isOp {
			b.ext.Ops = append(b.ext.Ops, e.op) //sqpr:amortized pooled on the builder
		} else {
			b.ext.Flows = append(b.ext.Flows, e.flow) //sqpr:amortized
		}
	}
	b.ext.Provides = append(b.ext.Provides, p) //sqpr:amortized
	ok := cand.ValidateExtension(b.sys, &b.ext) == nil
	if invariant.Enabled {
		b.mustAgreeWithValidate(cand, ok)
	}
	return ok
}

// mustAgreeWithValidate is the checked-build proof that accepts decides as
// a full Validate does, wherever the allocation it extends is valid.
func (b *builder) mustAgreeWithValidate(cand *dsps.Assignment, ok bool) {
	err := cand.Validate(b.sys)
	if ok == (err == nil) {
		return
	}
	before := cand.Clone()
	before.DeleteProvide(b.ext.Provides[0].Stream)
	before.EditFlows(b.ext.Flows, nil)
	before.EditOps(b.ext.Ops, nil)
	if before.Validate(b.sys) == nil {
		invariant.Failf("core: seed acceptance says %v, Validate says %v", ok, err)
	}
}

// scoreResources evaluates the resource part of the weighted objective
// (III.3) from the ledger: −λ2·O2/Σκ − λ3·O3/Σζ − λ4·O4/ζmax.
//
//sqpr:hotpath
func (b *builder) scoreResources() float64 {
	return b.planner.cfg.Weights.Objective(b.norm, 0, b.track.Network, b.track.CPUSum, b.track.MaxCPU())
}

// planStreamAt makes stream s available at host h inside trial, adding
// flows and operator placements greedily (journaled, ledger-checked).
// b.visiting guards against cycles. On failure the caller rolls back to
// its own mark; partial work may remain in the journal. Every 256th probe,
// the first included, polls ctx without blocking; a cancelled ctx spends
// the rest of the probe budget.
//
//sqpr:hotpath
func (b *builder) planStreamAt(ctx context.Context, trial *dsps.Assignment, s dsps.StreamID, h dsps.HostID) bool {
	if b.seedProbes <= 0 {
		return false
	}
	if b.seedProbes&255 == 0 {
		select {
		case <-ctx.Done():
			b.seedProbes = 0
			return false
		default:
		}
	}
	b.seedProbes--
	depth := b.seedDepth
	b.seedDepth++
	defer b.seedExit()
	if trial.Available(b.sys, h, s) {
		return true
	}
	k := b.sys.HSIndex(h, s)
	if b.visiting[k] {
		return false
	}
	b.visiting[k] = true
	defer b.seedLeave(k)

	// Reuse: fetch from any candidate host that already has s.
	for _, m := range b.hosts {
		if m != h && trial.Available(b.sys, m, s) && b.fetchFlow(trial, m, h, s) {
			return true
		}
	}
	// Base stream: route from a base location if it is a candidate host.
	if b.sys.Streams[s].IsBase() {
		for _, m := range b.sys.BaseHosts(s) {
			if m == h {
				return true // available locally; Available would have caught it
			}
			if b.hasHost(m) && b.fetchFlow(trial, m, h, s) {
				return true
			}
		}
		return false
	}
	// Composite: place one producer at a candidate host — preferring h
	// itself — and, if produced remotely, flow the output over. The host
	// lists live in depth-indexed scratch stacks pooled on the builder:
	// planStreamAt recurses through operator inputs, so each level owns its
	// buffers. During repair, an operator's pre-event host (prefer) is
	// tried before everything else, so the warm start rebuilds severed
	// queries with minimal migration.
	tryBuf, auxBuf := b.seedHostsAt(depth)
	others := (*auxBuf)[:0]
	for _, m := range b.hosts {
		if m != h {
			others = append(others, m) //sqpr:amortized pooled per depth
		}
	}
	*auxBuf = others
	b.sortHostsByHeadroom(others)
	const maxRemoteHosts = 3
	if len(others) > maxRemoteHosts {
		others = others[:maxRemoteHosts]
	}
	hostsTry := (*tryBuf)[:0]
	hostsTry = append(hostsTry, h)         //sqpr:amortized pooled per depth
	hostsTry = append(hostsTry, others...) //sqpr:amortized
	*tryBuf = hostsTry

	for _, op := range b.sys.ProducersOf(s) {
		if !b.hasOp(op) {
			continue
		}
		o := &b.sys.Operators[op]
		try := hostsTry
		if pref := b.prefer[b.oSlot[op]]; pref >= 0 && pref != h {
			// The ranking buffer is dead once hostsTry is built; reuse it
			// for the preferHost reorder.
			withPref := (*auxBuf)[:0]
			withPref = append(withPref, pref) //sqpr:amortized pooled per depth
			for _, m := range hostsTry {
				if m != pref {
					withPref = append(withPref, m) //sqpr:amortized
				}
			}
			*auxBuf = withPref
			try = withPref
		}
		for _, m := range try {
			if !b.track.FitsOp(dsps.Placement{Host: m, Op: op}, dsps.FitTol) {
				continue
			}
			mark := len(b.journal)
			ok := true
			for _, in := range o.Inputs {
				if !b.planStreamAt(ctx, trial, in, m) {
					ok = false
					break
				}
			}
			if ok && m != h {
				if f := (dsps.Flow{From: m, To: h, Stream: s}); b.track.FitsFlow(f, dsps.FitTol) {
					b.applyOp(trial, dsps.Placement{Host: m, Op: op})
					b.applyFlow(trial, f)
					return true
				}
				ok = false
			} else if ok {
				b.applyOp(trial, dsps.Placement{Host: m, Op: op})
				return true
			}
			b.rollback(trial, mark)
		}
	}
	return false
}

// fetchFlow adds the flow of s from one host to another to the trial if the
// link and both interfaces have room for it.
//
//sqpr:hotpath
func (b *builder) fetchFlow(trial *dsps.Assignment, from, to dsps.HostID, s dsps.StreamID) bool {
	f := dsps.Flow{From: from, To: to, Stream: s}
	if !b.track.FitsFlow(f, dsps.FitTol) {
		return false
	}
	b.applyFlow(trial, f)
	return true
}

// vectorOf encodes an assignment as a point in the model's variable space.
func (b *builder) vectorOf(a *dsps.Assignment) []float64 {
	vec := make([]float64, b.numVars())
	for _, s := range b.freeStreams {
		prov, provided := a.Provider(s)
		for _, h := range b.hosts {
			if dv, ok := b.d(h, s); ok && provided && prov == h {
				vec[dv] = 1
			}
			if a.Available(b.sys, h, s) {
				yv, _ := b.y(h, s)
				vec[yv] = 1
			}
		}
	}
	b.eachFlowVar(func(from, to dsps.HostID, s dsps.StreamID, xv milp.Var) {
		if a.HasFlow(dsps.Flow{From: from, To: to, Stream: s}) {
			vec[xv] = 1
		}
	})
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			if a.HasOp(dsps.Placement{Host: h, Op: o}) {
				zv, _ := b.z(h, o)
				vec[zv] = 1
			}
		}
	}
	b.fillPotentials(a, vec)
	// L: maximum CPU load over candidate hosts (fixed + free parts).
	u := a.ComputeUsage(b.sys)
	var maxLoad float64
	for _, h := range b.hosts {
		if u.CPU[h] > maxLoad {
			maxLoad = u.CPU[h]
		}
	}
	vec[b.lVar] = maxLoad
	return vec
}

// fillPotentials assigns stream potentials consistent with the acyclicity
// rows: senders sit strictly above receivers along every active flow.
// Active flows are acyclic (the assignment is validated), so |C| rounds of
// Bellman-Ford relaxation converge.
func (b *builder) fillPotentials(a *dsps.Assignment, vec []float64) {
	var flows []dsps.Flow
	pot := make([]float64, len(b.hosts)) // by host slot
	for _, s := range b.freeStreams {
		flows = flows[:0]
		for _, f := range a.FlowsOf(s) {
			if b.hasHost(f.From) && b.hasHost(f.To) {
				flows = append(flows, f)
			}
		}
		if len(flows) == 0 {
			continue
		}
		clear(pot)
		for range b.hosts {
			for _, f := range flows {
				if need := pot[b.hSlot[f.To]] + 1; pot[b.hSlot[f.From]] < need {
					pot[b.hSlot[f.From]] = need
				}
			}
		}
		for i, h := range b.hosts {
			pv, _ := b.p(h, s)
			vec[pv] = min(pot[i], b.bigM)
		}
	}
}
