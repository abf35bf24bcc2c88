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
// seed extends a copy of the current allocation, which repairChunk stages
// or discards; Submit seeds the allocation itself (seedOn) and rolls the
// trial back to mark 0 on every outcome that does not commit the seed.
//
// The greedy probes many partial plans per query on one dsps.Trial: it
// tracks resource usage incrementally and rolls trial placements back
// through the trial's journal, so probing never clones the assignment or
// recomputes usage from scratch.
//
// planStreamAt is an exponential backtracking search (producers × hosts,
// recursing through operator inputs), so the greedy runs under a probe
// budget shared across the call (on contended joint models the unbraked
// search could take minutes). It reads no clock, so a seed is the same
// whatever the call's timeout; it polls ctx every 256 probes and stops
// once ctx is cancelled, and its caller then discards it.
// A truncated greedy is harmless: the seed is the current allocation
// extended with however many queries were admitted before the brake, still
// a feasible warm start.
func (b *builder) seed(ctx context.Context) *dsps.Assignment {
	return b.seedOn(ctx, b.planner.Assignment().Clone())
}

// seedOn runs the greedy on a, the current allocation or a copy of it, as
// the trial's allocation from mark 0, and returns a.
func (b *builder) seedOn(ctx context.Context, a *dsps.Assignment) *dsps.Assignment {
	b.trial.Begin(a)
	// The builder is pooled: re-arm the probe budget, or one a previous call
	// spent would truncate this greedy on sight, and size planStreamAt's
	// cycle guard to the system.
	b.seedProbes = seedProbeBudget
	if n := b.sys.NumHosts() * len(b.sys.Streams); len(b.visiting) != n {
		b.visiting = make([]bool, n)
	}
	for _, q := range b.queries {
		if _, ok := a.Provider(q); ok {
			continue
		}
		if b.seedProbes <= 0 {
			break
		}
		b.greedyAdmit(ctx, q)
	}
	return a
}

// seedProbeBudget caps planStreamAt invocations per greedy run, the
// seed's only brake. A probe costs about 0.8 µs on the sqpr-sim Fig. 5c
// workload at arity 5 (its slowest seed took 336k probes in 250–280 ms on
// a 2-core VM), so the cap bounds one greedy run at about 0.85 s there; no
// seed of the sqpr-sim figures or the benchmark workloads reaches it. The
// pathological joint-batch cases it exists for burned billions of probes.
const seedProbeBudget = 1 << 20

// seedLeave takes availability k off planStreamAt's current path.
//
//sqpr:hotpath
func (b *builder) seedLeave(k int) { b.visiting[k] = false }

// headroom is the spare CPU of a candidate host under the ledger's trial
// usage — the greedy's ranking key.
//
//sqpr:hotpath
func (b *builder) headroom(h dsps.HostID) float64 {
	return b.sys.Hosts[h].CPU - b.trial.Usage.CPU[h]
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

// scored is one resource-feasible candidate plan of greedyAdmit.
type scored struct {
	h     dsps.HostID
	score float64
}

// greedyAdmit tries to admit query q into the trial on a single assembly
// host; it changes the trial only on success. Hosts are probed on the
// trial and rolled back; the best-scoring resource-feasible plan is kept.
//
//sqpr:hotpath
func (b *builder) greedyAdmit(ctx context.Context, q dsps.StreamID) bool {
	order := b.hostScratch[:0]
	order = append(order, b.hosts...) //sqpr:amortized pooled on the builder
	b.hostScratch = order
	b.sortHostsByHeadroom(order)

	results := b.scoredScratch[:0]
	for _, h := range order {
		if b.seedProbes <= 0 {
			break
		}
		mark := b.trial.Mark()
		// Deliver the result to the client from h (out-bandwidth only; the
		// provide itself is added once the winner is chosen).
		if b.planStreamAt(ctx, q, h) && b.trial.Usage.FitsProvide(h, q, dsps.FitTol) {
			results = append(results, scored{h, b.scoreResources()}) //sqpr:amortized
		}
		b.trial.Rollback(mark)
	}
	b.scoredScratch = results
	if len(results) == 0 {
		return false
	}
	// All candidate plans admit q, so λ1 cancels out of the comparison and
	// the resource score alone ranks them.
	sortScoredDesc(results)
	for _, r := range results {
		mark := b.trial.Mark()
		if b.planStreamAt(ctx, q, r.h) {
			b.trial.AddProvide(dsps.Provide{Stream: q, Host: r.h})
			if b.accepts(mark) {
				return true
			}
		}
		b.trial.Rollback(mark)
	}
	return false
}

// accepts reports whether Validate would accept the trial: the allocation
// the greedy run started from, valid by the ledger's invariant, extended
// by the pieces added since mark. Only those pieces and the budgets they
// touch are checked (dsps.ValidateExtension).
//
//sqpr:hotpath
func (b *builder) accepts(mark int) bool {
	cand, ext := b.trial.Assignment, b.trial.Extension(mark)
	ok := cand.ValidateExtension(b.sys, ext) == nil
	if invariant.Enabled {
		b.mustAgreeWithValidate(cand, ext, ok)
	}
	return ok
}

// mustAgreeWithValidate is the checked-build proof that accepts decides as
// a full Validate does, wherever the allocation it extends is valid.
func (b *builder) mustAgreeWithValidate(cand *dsps.Assignment, ext *dsps.Extension, ok bool) {
	err := cand.Validate(b.sys)
	if ok == (err == nil) {
		return
	}
	before := cand.Snapshot()
	before.DeleteProvide(ext.Provides[0].Stream)
	before.EditFlows(ext.Flows, nil)
	before.EditOps(ext.Ops, nil)
	if before.Validate(b.sys) == nil {
		invariant.Failf("core: seed acceptance says %v, Validate says %v", ok, err)
	}
}

// scoreResources evaluates the resource part of the weighted objective
// (III.3) from the ledger: −λ2·O2/Σκ − λ3·O3/Σζ − λ4·O4/ζmax.
//
//sqpr:hotpath
func (b *builder) scoreResources() float64 {
	u := &b.trial.Usage
	return b.planner.cfg.Weights.Objective(b.norm, 0, u.Network, u.CPUSum, u.MaxCPU())
}

// planStreamAt makes stream s available at host h inside the trial,
// adding flows and operator placements greedily (journaled, ledger-checked).
// b.visiting guards against cycles. On failure the caller rolls back to
// its own mark; partial work may remain in the journal. Every 256th probe,
// the first included, polls ctx without blocking; a cancelled ctx spends
// the rest of the probe budget.
//
//sqpr:hotpath
func (b *builder) planStreamAt(ctx context.Context, s dsps.StreamID, h dsps.HostID) bool {
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
	trial := b.trial.Assignment
	if trial.Available(b.sys, h, s) {
		return true
	}
	k := b.sys.HSIndex(h, s)
	if b.visiting[k] {
		return false
	}
	b.visiting[k] = true
	defer b.seedLeave(k)

	// Reuse: fetch from any candidate host that already has s, in host
	// order (h is not among the holders). A failed fetch changes nothing,
	// so the holders stay current through the loop.
	b.holders = trial.HoldersOf(b.sys, s, b.holders[:0])
	for _, m := range b.holders {
		if f := (dsps.Flow{From: m, To: h, Stream: s}); b.hasHost(m) && b.trial.Usage.FitsFlow(f, dsps.FitTol) {
			b.trial.AddFlow(f)
			return true
		}
	}
	// A base stream has no producer, and its base hosts were among the
	// holders.
	if b.sys.Streams[s].IsBase() {
		return false
	}
	// Composite: place one producer at a candidate host — h itself, then
	// the maxRemoteHosts others with the most headroom — and, if produced
	// remotely, flow the output over. During repair, an operator's
	// pre-event host (prefer) is tried before everything else, so the warm
	// start rebuilds severed queries with minimal migration. The host lists
	// live in arrays on this frame, as planStreamAt recurses through
	// operator inputs; only the ranking uses a builder buffer, which is
	// free again before the recursion.
	const maxRemoteHosts = 3
	others := b.rankScratch[:0]
	for _, m := range b.hosts {
		if m != h {
			others = append(others, m) //sqpr:amortized pooled on the builder
		}
	}
	b.rankScratch = others
	b.sortHostsByHeadroom(others)
	var hostsTry [1 + maxRemoteHosts]dsps.HostID
	hostsTry[0] = h
	n := 1 + copy(hostsTry[1:], others)
	for _, op := range b.sys.ProducersOf(s) {
		if !b.hasOp(op) {
			continue
		}
		o := &b.sys.Operators[op]
		try := hostsTry[:n]
		var withPref [2 + maxRemoteHosts]dsps.HostID
		if pref := b.prefer[b.oSlot[op]]; pref >= 0 && pref != h {
			withPref[0] = pref
			k := 1
			for _, m := range try {
				if m != pref {
					withPref[k] = m
					k++
				}
			}
			try = withPref[:k]
		}
		for _, m := range try {
			if !b.trial.Usage.FitsOp(dsps.Placement{Host: m, Op: op}, dsps.FitTol) {
				continue
			}
			mark := b.trial.Mark()
			ok := true
			for _, in := range o.Inputs {
				if !b.planStreamAt(ctx, in, m) {
					ok = false
					break
				}
			}
			if ok && m != h {
				if f := (dsps.Flow{From: m, To: h, Stream: s}); b.trial.Usage.FitsFlow(f, dsps.FitTol) {
					b.trial.AddOp(dsps.Placement{Host: m, Op: op})
					b.trial.AddFlow(f)
					return true
				}
				ok = false
			} else if ok {
				b.trial.AddOp(dsps.Placement{Host: m, Op: op})
				return true
			}
			b.trial.Rollback(mark)
		}
	}
	return false
}

// vectorOf encodes an assignment as a point in the model's variable space,
// from the runs of each free stream and operator.
func (b *builder) vectorOf(a *dsps.Assignment) []float64 {
	vec := make([]float64, b.numVars())
	set := func(v milp.Var, ok bool) {
		if ok {
			vec[v] = 1
		}
	}
	for _, s := range b.freeStreams {
		if prov, ok := a.Provider(s); ok {
			set(b.d(prov, s))
		}
		for _, h := range a.HoldersOf(b.sys, s, nil) {
			set(b.y(h, s))
		}
		for _, f := range a.FlowsOf(s) {
			set(b.x(f.From, f.To, s))
		}
	}
	for _, o := range b.freeOps {
		for _, pl := range a.PlacementsOf(o) {
			set(b.z(pl.Host, o))
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
