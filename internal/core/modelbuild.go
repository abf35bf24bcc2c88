package core

import (
	"slices"
	"sort"
	"time"

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
	// fixed (non-free) flows, provides and operators.
	resCPU, resMem, resOut, resIn []float64
	resLink                       [][]float64

	model *milp.Model
	bigM  float64
	norm  Norm // the (III.3) normalisers of sys, for the objective and the seed

	// stay, by z variable (offset from zBase), rewards keeping a surviving
	// operator on its incumbent host (repair's migration cost, mirrored as a
	// reward so the model stays a maximisation), and prefer, by operator
	// slot, biases the greedy warm start towards rebuilding an operator
	// where it ran before the events (−1 = no preference). Both are blank
	// outside Repair.
	stay   []bool
	prefer []dsps.HostID

	// Greedy warm-start scratch (see seed.go): the usage ledger of the
	// trial, the trial-mutation journal, the cycle guard of planStreamAt
	// and a host-ordering buffer, all pooled across submissions.
	track       dsps.Usage
	journal     []journalEntry
	visiting    []bool // by System.HSIndex; all false between runs
	hostScratch []dsps.HostID
	// scoredScratch holds greedyAdmit's candidate ranking; tryStack and
	// auxStack are depth-indexed host buffers for planStreamAt's recursion
	// (seedDepth tracks the live level). All grow to their high-water mark
	// once and are reused by every later probe.
	scoredScratch []scored
	tryStack      [][]dsps.HostID
	auxStack      [][]dsps.HostID
	seedDepth     int

	// seedDeadline bounds the greedy warm start's wall clock and
	// seedProbes its backtracking: planStreamAt is an exponential
	// backtracking search, and on large joint (batch) models at saturation
	// an unbounded greedy can eat minutes before the MILP even starts —
	// blowing straight through the solve deadline, which only the LP and
	// branch-and-bound loops poll (see incumbent in seed.go).
	seedDeadline time.Time
	seedProbes   int
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
	b.reset(p.sys)
	b.journal = b.journal[:0]
	b.model.Reset()
	return b
}

// newBuilder computes the free sets, candidate hosts, residual budgets and
// variable layout for planning queries. Submit frees their closures merged
// with those of the admitted queries sharing streams with them; Repair
// passes pinned and gets the closures alone.
func (p *Planner) newBuilder(queries []dsps.StreamID, pinned bool) *builder {
	b := p.builder()
	b.queries = queries
	for _, q := range queries {
		b.addFree(p.closures.streamsOf(q))
	}
	if !pinned {
		b.mergeSharers()
	}
	b.seal(b.sys)
	b.selectHosts()
	b.computeResiduals()
	b.place(b.allowProvide)
	b.stay = append(b.stay[:0], make([]bool, len(b.freeOps)*len(b.hosts))...)
	b.prefer = b.prefer[:0]
	for range b.freeOps {
		b.prefer = append(b.prefer, -1)
	}
	b.bigM = float64(len(b.hosts)) + 2
	b.norm = NormOf(b.sys)
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
		// Fixed operator consuming a free stream (only possible with the
		// replanning ablation): its host must stay in scope so that the
		// availability-preservation constraint can be expressed.
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
	// spare ones, each ordered by spare CPU.
	usage := st.ComputeUsage(b.sys)
	spare := func(h dsps.HostID) float64 { return b.sys.Hosts[h].CPU - usage.CPU[h] }
	fill := func(list []dsps.HostID) {
		sort.Slice(list, func(i, j int) bool {
			si, sj := spare(list[i]), spare(list[j])
			if si != sj {
				return si > sj
			}
			return list[i] < list[j]
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
// candidate hosts.
func (b *builder) computeResiduals() {
	k := len(b.hosts)
	b.resCPU = make([]float64, k)
	b.resMem = make([]float64, k)
	b.resOut = make([]float64, k)
	b.resIn = make([]float64, k)
	b.resLink = make([][]float64, k)
	for i, h := range b.hosts {
		b.resCPU[i] = b.sys.Hosts[h].CPU
		b.resMem[i] = b.sys.Hosts[h].Mem
		b.resOut[i] = b.sys.Hosts[h].OutBW
		b.resIn[i] = b.sys.Hosts[h].InBW
		b.resLink[i] = make([]float64, k)
		for j, m := range b.hosts {
			b.resLink[i][j] = b.sys.LinkCap[h][m]
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
				b.resLink[i][j] -= rate
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
// appends −z_ho for every free producer o of s to terms and returns, as the
// row's right-hand side, 1[s ∈ S⁰_h] plus the fixed operators already
// producing s at h.
func (b *builder) originAt(h dsps.HostID, s dsps.StreamID, terms []milp.Term) ([]milp.Term, float64) {
	rhs := 0.0
	if b.sys.IsBaseAt(h, s) {
		rhs += 1
	}
	for _, op := range b.sys.ProducersOf(s) {
		if zv, ok := b.z(h, op); ok {
			terms = append(terms, milp.Term{Var: zv, Coef: -1})
		} else if b.planner.Assignment().HasOp(dsps.Placement{Host: h, Op: op}) {
			rhs += 1
		}
	}
	return terms, rhs
}

// build assembles the MILP into the builder's pooled model.
func (b *builder) build() *milp.Model {
	m := b.model
	sys := b.sys
	st := b.planner.Assignment()

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
		var sum []milp.Term
		for _, h := range b.hosts {
			d, _ := b.d(h, s)
			y, _ := b.y(h, s)
			// (III.4a) d_hs <= y_hs (δ_s = 1 since s is requested here).
			m.AddCons("demand-avail", milp.LE, 0, milp.Term{Var: d, Coef: 1}, milp.Term{Var: y, Coef: -1})
			sum = append(sum, milp.Term{Var: d, Coef: 1})
		}
		if b.planner.Admitted(s) {
			// (IV.9): already admitted queries must stay satisfied,
			// though possibly from a different host.
			m.AddCons("keep-admitted", milp.EQ, 1, sum...)
		} else {
			// (III.4b): at most one provider.
			m.AddCons("one-provider", milp.LE, 1, sum...)
		}
	}

	// --- Availability constraints (III.5) --------------------------------
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			y, _ := b.y(h, s)
			terms := []milp.Term{{Var: y, Coef: 1}}
			for _, src := range b.hosts {
				if xv, ok := b.x(src, h, s); ok {
					terms = append(terms, milp.Term{Var: xv, Coef: -1})
				}
			}
			// (III.5a): y_hs <= Σ x + Σ z + base indicator.
			terms, rhs := b.originAt(h, s, terms)
			m.AddCons("avail", milp.LE, rhs, terms...)
		}
	}
	// (III.5b): z_ho <= y_hs for every input stream of o.
	for _, o := range b.freeOps {
		op := &sys.Operators[o]
		for _, h := range b.hosts {
			zv, _ := b.z(h, o)
			for _, in := range op.Inputs {
				yv, ok := b.y(h, in)
				if !ok {
					// Input outside free set can only happen with
					// reduction disabled inconsistencies; treat as fixed
					// availability from current state.
					if st.Available(sys, h, in) {
						continue
					}
					b.model.Fix(zv, 0)
					continue
				}
				m.AddCons("op-input", milp.LE, 0, milp.Term{Var: zv, Coef: 1}, milp.Term{Var: yv, Coef: -1})
			}
		}
	}
	// (III.5c): x_hms <= y_hs. The relay ablation strengthens it: a host may
	// only send streams it originates (base stream or locally executed
	// producer), never streams it merely received.
	b.eachFlowVar(func(from, _ dsps.HostID, s dsps.StreamID, xv milp.Var) {
		if b.planner.cfg.DisableRelay {
			terms, rhs := b.originAt(from, s, []milp.Term{{Var: xv, Coef: 1}})
			m.AddCons("no-relay", milp.LE, rhs, terms...)
			return
		}
		yv, _ := b.y(from, s)
		m.AddCons("send-avail", milp.LE, 0, milp.Term{Var: xv, Coef: 1}, milp.Term{Var: yv, Coef: -1})
	})

	// Availability preservation: fixed operators and fixed provides that
	// consume a free stream on a candidate host require the new plan to
	// keep the stream available there (arises under the replan ablation).
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
	var need []bool // by y variable
	for _, pl := range b.planner.Assignment().Ops {
		if b.hasOp(pl.Op) {
			continue
		}
		for _, in := range b.sys.Operators[pl.Op].Inputs {
			if yv, ok := b.y(pl.Host, in); ok {
				if need == nil {
					need = make([]bool, b.zBase)
				}
				need[yv] = true
			}
		}
	}
	if need == nil {
		return
	}
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			if yv, _ := b.y(h, s); need[yv] {
				b.model.AddCons("preserve-avail", milp.GE, 1, milp.Term{Var: yv, Coef: 1})
			}
		}
	}
}

// addResourceRows emits the four budget families of (III.6) over candidate
// hosts, with right-hand sides already reduced by fixed consumption.
func (b *builder) addResourceRows() {
	sys := b.sys
	m := b.model
	for i, h := range b.hosts {
		// (III.6d) CPU.
		var cpu []milp.Term
		for _, o := range b.freeOps {
			zv, _ := b.z(h, o)
			cpu = append(cpu, milp.Term{Var: zv, Coef: sys.Operators[o].Cost})
		}
		if len(cpu) > 0 {
			m.AddCons("cpu", milp.LE, b.resCPU[i], cpu...)
		}
		// Memory budget (future-work resource; zero budget = unconstrained).
		if sys.Hosts[h].Mem > 0 {
			var mem []milp.Term
			for _, o := range b.freeOps {
				if mu := sys.Operators[o].Mem; mu > 0 {
					zv, _ := b.z(h, o)
					mem = append(mem, milp.Term{Var: zv, Coef: mu})
				}
			}
			if len(mem) > 0 {
				m.AddCons("mem", milp.LE, b.resMem[i], mem...)
			}
		}
		// O4 linearisation: L >= fixedCPU_h + Σ γ z_ho
		fixedCPU := sys.Hosts[h].CPU - b.resCPU[i]
		lrow := []milp.Term{{Var: b.lVar, Coef: 1}}
		for _, t := range cpu {
			lrow = append(lrow, milp.Term{Var: t.Var, Coef: -t.Coef})
		}
		m.AddCons("load", milp.GE, fixedCPU, lrow...)

		// (III.6c) outgoing host bandwidth: flows out plus client deliveries.
		var out []milp.Term
		for _, s := range b.freeStreams {
			rate := sys.Streams[s].Rate
			for _, mm := range b.hosts {
				if xv, ok := b.x(h, mm, s); ok {
					out = append(out, milp.Term{Var: xv, Coef: rate})
				}
			}
			if dv, ok := b.d(h, s); ok {
				out = append(out, milp.Term{Var: dv, Coef: rate})
			}
		}
		if len(out) > 0 {
			m.AddCons("out-bw", milp.LE, b.resOut[i], out...)
		}

		// (III.6b) incoming host bandwidth.
		var in []milp.Term
		for _, s := range b.freeStreams {
			rate := sys.Streams[s].Rate
			for _, src := range b.hosts {
				if xv, ok := b.x(src, h, s); ok {
					in = append(in, milp.Term{Var: xv, Coef: rate})
				}
			}
		}
		if len(in) > 0 {
			m.AddCons("in-bw", milp.LE, b.resIn[i], in...)
		}

		// (III.6a) pairwise link capacity.
		for j, mm := range b.hosts {
			if i == j {
				continue
			}
			var link []milp.Term
			for _, s := range b.freeStreams {
				xv, _ := b.x(h, mm, s)
				link = append(link, milp.Term{Var: xv, Coef: sys.Streams[s].Rate})
			}
			if len(link) > 0 {
				m.AddCons("link", milp.LE, b.resLink[i][j], link...)
			}
		}
	}
}

// setObjective installs λ1·O1 − λ2·O2 − λ3·O3 − λ4·O4 (maximisation).
func (b *builder) setObjective() {
	w := b.planner.cfg.Weights
	sys := b.sys
	var terms []milp.Term
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
			if b.stay[zv-b.zBase] {
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
}
