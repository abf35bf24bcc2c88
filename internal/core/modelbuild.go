package core

import (
	"cmp"
	"slices"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
)

// builder assembles the reduced MILP (III.8) for one planning call. It is
// pooled on the Planner and reused across submissions, so a long-lived
// planner re-emits its model each call without reallocating it.
type builder struct {
	planner *Planner
	sys     *dsps.System
	queries []dsps.StreamID // fresh queries being planned

	// layout holds the free sets, the candidate hosts and the variable
	// addressing derived from them.
	layout

	// Residual budgets on candidate hosts after subtracting consumption of
	// fixed (non-free) flows, provides and operators, by host slot (resLink
	// by slot pair, row-major), written by build.
	resCPU, resMem, resOut, resIn, resLink []float64

	model *milp.Model
	bigM  float64 // the acyclicity rows' M, written by newBuilder
	norm  Norm    // the (III.3) normalisers of sys, for the objective and the seed

	// Build scratch: the objective's terms and, by y variable, the
	// preservation rows' marks (all false between builds).
	objTerms []milp.Term
	need     []bool

	// Repair's allocation before its events and its operators denied the
	// stay bonus (by OperatorID), both nil outside Repair (see stays); and
	// prefer, by operator slot, which biases the greedy warm start towards
	// rebuilding an operator where it ran (−1 = no preference).
	before  *dsps.Assignment
	noBonus []bool
	prefer  []dsps.HostID

	// Greedy warm-start scratch (see seed.go), pooled across submissions:
	// the trial with its usage ledger and journal, the cycle guard of
	// planStreamAt, greedyAdmit's host order and candidate ranking,
	// planStreamAt's host ranking and the holders of a stream.
	trial         dsps.Trial
	roots         []int  // pruneUnused's roots, by System.HSIndex
	isTouched     []bool // by HostID: touchFree's touched hosts
	touched       int    // how many hosts isTouched marks
	newTouched    []dsps.HostID
	visiting      []bool // by System.HSIndex; all false between runs
	hostScratch   []dsps.HostID
	scoredScratch []scored
	rankScratch   []dsps.HostID
	holders       []dsps.HostID
	placedScratch []bool // Submit's record of what the seed placed, by fresh query

	// mergeSharers' candidates, and by StreamID the call (sharerEpoch) in
	// which it last met each sharer.
	candScratch []dsps.StreamID
	sharerMet   []uint32
	sharerEpoch uint32

	// seedProbes bounds the greedy warm start's backtracking:
	// planStreamAt is an exponential backtracking search, and on large
	// joint (batch) models at saturation an unbounded greedy can eat
	// minutes (see seedProbeBudget in seed.go).
	seedProbes int
}

// builder returns the pooled builder, emptied: no free streams, no hosts,
// no model.
func (p *Planner) builder() *builder {
	b := p.bld
	if b == nil {
		b = &builder{model: milp.NewModel()}
		p.bld = b
	}
	b.planner = p
	b.sys = p.sys
	b.queries = nil
	b.before, b.noBonus = nil, nil
	b.reset(p.sys)
	b.model.Reset()
	return b
}

// newBuilder computes the free sets, candidate hosts and variable layout
// for planning queries: what the seed and the size line read. Submit frees
// their closures merged with those of the admitted queries sharing streams
// with them; Repair passes pinned and gets the closures alone. What only
// the model needs is left to build.
func (p *Planner) newBuilder(queries []dsps.StreamID, pinned bool) *builder {
	b := p.builder()
	b.queries = queries
	for _, q := range queries {
		b.addFree(p.closures.streamsOf(q))
	}
	if !pinned {
		p.indexSharers(queries)
		b.mergeSharers()
	}
	b.seal(b.sys)
	b.selectHosts()
	b.place(b.allowProvide)
	b.bigM = float64(len(b.hosts)) + 2
	b.prefer = b.prefer[:0]
	for range b.freeOps {
		b.prefer = append(b.prefer, -1)
	}
	b.norm = p.norm
	return b
}

// allowProvide reports whether free stream s gets d variables in this
// model: (III.4)'s δ_s holds for the queries of the call and the admitted
// set, the streams a call can end up serving. A requested stream a closure
// merely sweeps in — never submitted, or rejected — gets none: its λ1 would
// hold the bound open over an admission nobody asked this call for, and a
// provide the call installed for it would be an allocation the ledger does
// not count as admitted.
func (b *builder) allowProvide(s dsps.StreamID) bool {
	return slices.Contains(b.queries, s) || b.planner.Admitted(s)
}

// selectHosts picks the candidate host set: every host already touching a
// free stream or free operator is forced in (their variables must be free
// for correctness), every host holding a base stream of the free set is
// highly desirable, and remaining slots are filled by spare CPU capacity.
// Down hosts never enter the set — the planner state is expected to hold
// nothing on them (Repair strips failures before re-planning) — and
// draining hosts enter only when forced in by existing allocations, never
// as discretionary candidates for new load.
func (b *builder) selectHosts() {
	n := b.sys.NumHosts()
	st := b.planner.Assignment()
	// A chosen host is marked in hSlot; the slots proper are assigned at
	// the end, in host order.
	chosen := 0
	choose := func(h dsps.HostID) {
		if b.hSlot[h] < 0 {
			b.hSlot[h] = 0
			chosen++
		}
	}
	force := func(h dsps.HostID) {
		if b.sys.HostUsable(h) {
			choose(h)
		}
	}
	for _, f := range st.Flows {
		if b.hasStream(f.Stream) {
			force(f.From)
			force(f.To)
		}
	}
	for _, pl := range st.Ops {
		if b.hasOp(pl.Op) {
			force(pl.Host)
			continue
		}
		// Fixed operator consuming a free stream (a sharing query the
		// MaxFreeStreams cap left fixed): its host must stay in scope so
		// that the availability-preservation constraint can be expressed.
		for _, in := range b.sys.Operators[pl.Op].Inputs {
			if b.hasStream(in) {
				force(pl.Host)
			}
		}
	}
	for _, p := range st.Provides {
		if b.hasStream(p.Stream) {
			force(p.Host)
		}
	}

	// The base-stream locations of the *fresh* queries are mandatory: a
	// new query with no prior allocation can only be satisfied via flows
	// that originate at those hosts. (Sharing queries already have their
	// hosts forced through their existing flows and placements above.)
	for _, q := range b.queries {
		for _, s := range b.planner.closures.streamsOf(q) {
			if b.sys.Streams[s].IsBase() {
				for _, h := range b.sys.BaseHosts(s) {
					force(h)
				}
			}
		}
	}

	allowed := func(h dsps.HostID) bool {
		return (b.planner.allowedHosts == nil || b.planner.allowedHosts[h]) && b.sys.HostPlaceable(h)
	}
	cap := b.planner.cfg.MaxCandidateHosts
	if b.planner.cfg.DisableReduction {
		cap = n
	}
	// Add preferred hosts (base-stream holders), then the globally most
	// spare ones, each ordered by spare CPU. The seed starts from the usage
	// ledger summed here.
	b.trial.Usage.Reset(b.sys, st)
	spare := func(h dsps.HostID) float64 { return b.sys.Hosts[h].CPU - b.trial.Usage.CPU[h] }
	fill := func(list []dsps.HostID) {
		slices.SortFunc(list, func(x, y dsps.HostID) int {
			if c := cmp.Compare(spare(y), spare(x)); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		for _, h := range list {
			if chosen >= cap {
				break
			}
			choose(h)
		}
	}
	var list []dsps.HostID
	for _, s := range b.freeStreams {
		if b.sys.Streams[s].IsBase() {
			for _, h := range b.sys.BaseHosts(s) {
				if allowed(h) && !b.hasHost(h) && !slices.Contains(list, h) {
					list = append(list, h)
				}
			}
		}
	}
	fill(list)
	if chosen < cap {
		list = list[:0]
		for h := 0; h < n; h++ {
			if !b.hasHost(dsps.HostID(h)) && allowed(dsps.HostID(h)) {
				list = append(list, dsps.HostID(h))
			}
		}
		fill(list)
	}
	for h := 0; h < n; h++ {
		if b.hasHost(dsps.HostID(h)) {
			b.hSlot[h] = int32(len(b.hosts))
			b.hosts = append(b.hosts, dsps.HostID(h))
		}
	}
}

// computeResiduals subtracts the consumption of all *fixed* allocation
// pieces (flows/ops/provides outside the free sets) from the budgets of the
// candidate hosts, into arrays pooled on the builder.
func (b *builder) computeResiduals() {
	k := len(b.hosts)
	b.resCPU, b.resMem = b.resCPU[:0], b.resMem[:0]
	b.resOut, b.resIn, b.resLink = b.resOut[:0], b.resIn[:0], b.resLink[:0]
	for _, h := range b.hosts {
		b.resCPU = append(b.resCPU, b.sys.Hosts[h].CPU)
		b.resMem = append(b.resMem, b.sys.Hosts[h].Mem)
		b.resOut = append(b.resOut, b.sys.Hosts[h].OutBW)
		b.resIn = append(b.resIn, b.sys.Hosts[h].InBW)
		for _, m := range b.hosts {
			b.resLink = append(b.resLink, b.sys.LinkCap[h][m])
		}
	}
	st := b.planner.Assignment()
	for _, pl := range st.Ops {
		if i := b.hSlot[pl.Host]; i >= 0 && !b.hasOp(pl.Op) {
			b.resCPU[i] -= b.sys.Operators[pl.Op].Cost
			b.resMem[i] -= b.sys.Operators[pl.Op].Mem
		}
	}
	for _, f := range st.Flows {
		if b.hasStream(f.Stream) {
			continue
		}
		rate := b.sys.Streams[f.Stream].Rate
		i, j := b.hSlot[f.From], b.hSlot[f.To]
		if i >= 0 {
			b.resOut[i] -= rate
			if j >= 0 {
				b.resLink[int(i)*k+int(j)] -= rate
			}
		}
		if j >= 0 {
			b.resIn[j] -= rate
		}
	}
	for _, p := range st.Provides {
		if i := b.hSlot[p.Host]; i >= 0 && !b.hasStream(p.Stream) {
			b.resOut[i] -= b.sys.Streams[p.Stream].Rate
		}
	}
}

// originAt states how host h can have stream s without receiving it: it
// adds −z_ho for every free producer o of s to the model's open row and
// returns, as the row's right-hand side, 1[s ∈ S⁰_h] plus the fixed
// operators already producing s at h.
func (b *builder) originAt(h dsps.HostID, s dsps.StreamID) float64 {
	rhs := 0.0
	if b.sys.IsBaseAt(h, s) {
		rhs += 1
	}
	for _, op := range b.sys.ProducersOf(s) {
		if zv, ok := b.z(h, op); ok {
			b.model.AddTerm(zv, -1)
		} else if b.planner.Assignment().HasOp(dsps.Placement{Host: h, Op: op}) {
			rhs += 1
		}
	}
	return rhs
}

// build assembles the MILP into the builder's pooled model. Each row's
// terms go straight into the model's row matrix (AddTerm, then EndRow), so
// a warm build allocates nothing.
func (b *builder) build() *milp.Model {
	m := b.model
	sys := b.sys
	b.computeResiduals()

	// --- Variables -----------------------------------------------------
	// Created in layout order (each creation is checked against it), after
	// which every row below addresses them through the layout's accessors.
	// Variable names are static family tags: per-variable formatted names
	// cost a Sprintf and a string allocation each on the hot submit path,
	// and nothing reads them back.
	// Branch priorities rank the decisions: admission (d) first — it
	// carries λ1 and shapes everything below — then availability (y), then
	// operator placement (z); flow routing (x) branches last (priority 0),
	// as its objective weight is smallest and most x values follow from the
	// other decisions anyway.
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			b.expect(b.y(h, s))
			m.SetBranchPriority(m.AddBinary("y"), 2)
			if dv, ok := b.d(h, s); ok {
				b.expect(dv, ok)
				m.SetBranchPriority(m.AddBinary("d"), 3)
			}
			b.expect(b.p(h, s))
			m.AddContinuous(0, b.bigM, "p")
		}
		for _, h := range b.hosts {
			for _, mm := range b.hosts {
				if h != mm {
					b.expect(b.x(h, mm, s))
					m.AddBinary("x")
				}
			}
		}
	}
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			b.expect(b.z(h, o))
			m.SetBranchPriority(m.AddBinary("z"), 1)
		}
	}
	b.expect(b.lVar, true)
	m.AddContinuous(0, max(b.norm.MaxCPU, 1), "L") // a load never exceeds ζmax

	// --- Demand constraints (III.4) -------------------------------------
	for si, s := range b.freeStreams {
		if b.stride[si] != 3 {
			continue // no provide variables for s
		}
		for _, h := range b.hosts {
			d, _ := b.d(h, s)
			y, _ := b.y(h, s)
			// (III.4a) d_hs <= y_hs (δ_s = 1 since s is requested here).
			m.AddCons("demand-avail", milp.LE, 0, milp.Term{Var: d, Coef: 1}, milp.Term{Var: y, Coef: -1})
		}
		for _, h := range b.hosts {
			d, _ := b.d(h, s)
			m.AddTerm(d, 1)
		}
		if b.planner.Admitted(s) {
			// (IV.9): already admitted queries must stay satisfied,
			// though possibly from a different host.
			m.EndRow("keep-admitted", milp.EQ, 1)
		} else {
			// (III.4b): at most one provider.
			m.EndRow("one-provider", milp.LE, 1)
		}
	}

	// --- Availability constraints (III.5) --------------------------------
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			y, _ := b.y(h, s)
			m.AddTerm(y, 1)
			for _, src := range b.hosts {
				if xv, ok := b.x(src, h, s); ok {
					m.AddTerm(xv, -1)
				}
			}
			// (III.5a): y_hs <= Σ x + Σ z + base indicator.
			m.EndRow("avail", milp.LE, b.originAt(h, s))
		}
	}
	// (III.5b): z_ho <= y_hs for every input stream of o.
	for _, o := range b.freeOps {
		op := &sys.Operators[o]
		for _, h := range b.hosts {
			zv, _ := b.z(h, o)
			for _, in := range op.Inputs {
				// Closures are input-closed (layout.seal), so every input
				// of a free operator is a free stream.
				yv, _ := b.y(h, in)
				m.AddCons("op-input", milp.LE, 0, milp.Term{Var: zv, Coef: 1}, milp.Term{Var: yv, Coef: -1})
			}
		}
	}
	// (III.5c): x_hms <= y_hs.
	b.eachFlowVar(func(from, _ dsps.HostID, s dsps.StreamID, xv milp.Var) {
		yv, _ := b.y(from, s)
		m.AddCons("send-avail", milp.LE, 0, milp.Term{Var: xv, Coef: 1}, milp.Term{Var: yv, Coef: -1})
	})

	// Availability preservation: fixed operators and fixed provides that
	// consume a free stream on a candidate host require the new plan to
	// keep the stream available there (arises when the MaxFreeStreams cap
	// leaves a sharing query fixed).
	b.addPreservationRows()

	// --- Resource constraints (III.6) ------------------------------------
	b.addResourceRows()

	// --- Acyclicity constraints (III.7) ----------------------------------
	b.eachFlowVar(func(from, to dsps.HostID, s dsps.StreamID, xv milp.Var) {
		ph, _ := b.p(from, s)
		pm, _ := b.p(to, s)
		// p_hs >= p_ms + 1 − M(1 − x) ⇔ p_h − p_m − M·x >= 1 − M.
		m.AddCons("acyclic", milp.GE, 1-b.bigM,
			milp.Term{Var: ph, Coef: 1}, milp.Term{Var: pm, Coef: -1}, milp.Term{Var: xv, Coef: -b.bigM})
	})

	// --- Objective (III.3) ------------------------------------------------
	b.setObjective()
	return m
}

// addPreservationRows forces y_hs = 1 wherever a fixed (non-free) element
// of the current allocation depends on free stream s at host h. A consuming
// host outside the candidate set has no y variable and is skipped; forced
// hosts should prevent that.
func (b *builder) addPreservationRows() {
	b.need = slices.Grow(b.need[:0], int(b.zBase))[:b.zBase]
	found := false
	for _, pl := range b.planner.Assignment().Ops {
		if b.hasOp(pl.Op) {
			continue
		}
		for _, in := range b.sys.Operators[pl.Op].Inputs {
			if yv, ok := b.y(pl.Host, in); ok {
				b.need[yv] = true
				found = true
			}
		}
	}
	if !found {
		return
	}
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			if yv, _ := b.y(h, s); b.need[yv] {
				b.model.AddCons("preserve-avail", milp.GE, 1, milp.Term{Var: yv, Coef: 1})
			}
		}
	}
	clear(b.need)
}

// addResourceRows emits the four budget families of (III.6) over candidate
// hosts, with right-hand sides already reduced by fixed consumption.
func (b *builder) addResourceRows() {
	sys := b.sys
	m := b.model
	for i, h := range b.hosts {
		// (III.6d) CPU.
		if len(b.freeOps) > 0 {
			for _, o := range b.freeOps {
				zv, _ := b.z(h, o)
				m.AddTerm(zv, sys.Operators[o].Cost)
			}
			m.EndRow("cpu", milp.LE, b.resCPU[i])
		}
		// Memory budget (future-work resource; zero budget = unconstrained).
		if sys.Hosts[h].Mem > 0 {
			mem := false
			for _, o := range b.freeOps {
				if mu := sys.Operators[o].Mem; mu > 0 {
					zv, _ := b.z(h, o)
					m.AddTerm(zv, mu)
					mem = true
				}
			}
			if mem {
				m.EndRow("mem", milp.LE, b.resMem[i])
			}
		}
		// O4 linearisation: L >= fixedCPU_h + Σ γ z_ho
		m.AddTerm(b.lVar, 1)
		for _, o := range b.freeOps {
			zv, _ := b.z(h, o)
			m.AddTerm(zv, -sys.Operators[o].Cost)
		}
		m.EndRow("load", milp.GE, sys.Hosts[h].CPU-b.resCPU[i])

		// (III.6c) outgoing host bandwidth: flows out plus client deliveries.
		out := false
		for _, s := range b.freeStreams {
			rate := sys.Streams[s].Rate
			for _, mm := range b.hosts {
				if xv, ok := b.x(h, mm, s); ok {
					m.AddTerm(xv, rate)
					out = true
				}
			}
			if dv, ok := b.d(h, s); ok {
				m.AddTerm(dv, rate)
				out = true
			}
		}
		if out {
			m.EndRow("out-bw", milp.LE, b.resOut[i])
		}

		// (III.6b) incoming host bandwidth.
		in := false
		for _, s := range b.freeStreams {
			rate := sys.Streams[s].Rate
			for _, src := range b.hosts {
				if xv, ok := b.x(src, h, s); ok {
					m.AddTerm(xv, rate)
					in = true
				}
			}
		}
		if in {
			m.EndRow("in-bw", milp.LE, b.resIn[i])
		}

		// (III.6a) pairwise link capacity.
		if len(b.freeStreams) == 0 {
			continue
		}
		for j, mm := range b.hosts {
			if i == j {
				continue
			}
			for _, s := range b.freeStreams {
				xv, _ := b.x(h, mm, s)
				m.AddTerm(xv, sys.Streams[s].Rate)
			}
			m.EndRow("link", milp.LE, b.resLink[i*len(b.hosts)+j])
		}
	}
}

// stays reports whether Repair's objective pays the stay bonus for
// operator o on host h: o ran there before the events, did not drift, and
// h still takes new load.
func (b *builder) stays(h dsps.HostID, o dsps.OperatorID) bool {
	return b.before != nil && !b.noBonus[o] && b.sys.HostPlaceable(h) &&
		b.before.HasOp(dsps.Placement{Host: h, Op: o})
}

// setObjective installs λ1·O1 − λ2·O2 − λ3·O3 − λ4·O4 (maximisation).
func (b *builder) setObjective() {
	w := b.planner.cfg.Weights
	sys := b.sys
	terms := b.objTerms[:0]
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			dv, ok := b.d(h, s)
			if !ok {
				break // no provide variables for s
			}
			terms = append(terms, milp.Term{Var: dv, Coef: w.provide(sys, h)})
		}
	}
	b.eachFlowVar(func(_, _ dsps.HostID, s dsps.StreamID, xv milp.Var) {
		terms = append(terms, milp.Term{Var: xv, Coef: -w.L2 * sys.Streams[s].Rate / b.norm.Link})
	})
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			zv, _ := b.z(h, o)
			coef := -w.L3 * sys.Operators[o].Cost / b.norm.CPU
			// Repair's migration cost: moving a surviving operator off its
			// incumbent host forfeits the stay bonus, so migration only happens
			// when it buys admission or substantial placement quality.
			if b.stays(h, o) {
				coef += migrationWeight
			}
			// Draining hosts repel load at the same magnitude a migration
			// costs (and the stay bonus never applies to them), so evacuation
			// is preferred whenever it is feasible — the penalty must exceed
			// the solver's repair gap tolerance or evacuations would sit
			// inside the allowed slack.
			if sys.Hosts[h].State == dsps.HostDraining {
				coef -= migrationWeight
			}
			terms = append(terms, milp.Term{Var: zv, Coef: coef})
		}
	}
	terms = append(terms, milp.Term{Var: b.lVar, Coef: -w.L4 / b.norm.MaxCPU})
	b.model.SetObjective(true, terms...)
	b.objTerms = terms
}
