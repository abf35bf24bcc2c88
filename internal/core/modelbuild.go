package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
)

// builder assembles the reduced MILP (III.8) for one planning call.
type builder struct {
	p       *Planner
	sys     *dsps.System
	queries []dsps.StreamID // fresh queries being planned

	free        map[dsps.StreamID]bool
	freeStreams []dsps.StreamID
	freeOps     []dsps.OperatorID
	freeOpSet   map[dsps.OperatorID]bool

	hosts   []dsps.HostID // candidate hosts
	hostIdx map[dsps.HostID]int

	// Residual budgets on candidate hosts after subtracting consumption of
	// fixed (non-free) flows, provides and operators.
	resCPU, resMem, resOut, resIn []float64
	resLink                       [][]float64

	model *milp.Model
	// Variable indices; absent key means the variable does not exist (and
	// is semantically zero).
	dVar map[hsKey]milp.Var
	xVar map[flowKey]milp.Var
	yVar map[hsKey]milp.Var
	zVar map[zKey]milp.Var
	pVar map[hsKey]milp.Var
	lVar milp.Var // O4 linearisation: max per-host CPU

	bigM float64
	norm Norm // the (III.3) normalisers of sys, for the objective and the seed

	// stayBonus rewards keeping a surviving operator on its incumbent host
	// (repair's migration cost, mirrored as a reward so the model stays a
	// maximisation), and preferHost biases the greedy warm start towards
	// rebuilding an operator where it ran before the events. Both are
	// empty outside Repair.
	stayBonus  map[zKey]float64
	preferHost map[dsps.OperatorID]dsps.HostID

	// dAllowed, when non-nil, restricts which requested free streams get
	// provide (d) variables, beyond the always-allowed admitted streams.
	// Repair sets it to the chunk's queries: opportunistically admitting
	// unrelated queries is Submit's job, and their λ1-rewarded fractional
	// admissions would otherwise keep the delta solve's bound open for
	// the entire node budget.
	dAllowed map[dsps.StreamID]bool

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

type hsKey struct {
	h dsps.HostID
	s dsps.StreamID
}

type flowKey struct {
	from, to dsps.HostID
	s        dsps.StreamID
}

type zKey struct {
	h dsps.HostID
	o dsps.OperatorID
}

// newBuilder computes the free sets, candidate hosts and residual budgets.
// The builder itself — its variable maps, host tables and the MILP model —
// is pooled on the Planner and reused across submissions, so a long-lived
// planner re-emits its model each call without reallocating it.
func (p *Planner) newBuilder(queries []dsps.StreamID) *builder {
	return p.newBuilderWith(queries, p.freeSet(queries))
}

// newBuilderWith is newBuilder with an explicit free set; Repair passes the
// pinned free set (closures of the affected queries only, no sharing-merge).
func (p *Planner) newBuilderWith(queries []dsps.StreamID, free map[dsps.StreamID]bool) *builder {
	b := p.bld
	if b == nil {
		b = &builder{
			dVar:       make(map[hsKey]milp.Var),
			xVar:       make(map[flowKey]milp.Var),
			yVar:       make(map[hsKey]milp.Var),
			zVar:       make(map[zKey]milp.Var),
			pVar:       make(map[hsKey]milp.Var),
			stayBonus:  make(map[zKey]float64),
			preferHost: make(map[dsps.OperatorID]dsps.HostID),
			freeOpSet:  make(map[dsps.OperatorID]bool),
			model:      milp.NewModel(),
		}
		p.bld = b
	} else {
		clear(b.dVar)
		clear(b.xVar)
		clear(b.yVar)
		clear(b.zVar)
		clear(b.pVar)
		clear(b.freeOpSet)
		clear(b.stayBonus)
		clear(b.preferHost)
		b.dAllowed = nil
		b.freeStreams = b.freeStreams[:0]
		b.freeOps = b.freeOps[:0]
		b.hosts = b.hosts[:0]
		b.journal = b.journal[:0]
		b.model.Reset()
	}
	b.p = p
	b.sys = p.sys
	b.queries = queries
	b.free = free
	for s := range b.free {
		b.freeStreams = append(b.freeStreams, s)
	}
	slices.Sort(b.freeStreams)
	b.freeOps = p.freeOperators(b.free)
	for _, o := range b.freeOps {
		b.freeOpSet[o] = true
	}
	b.selectHosts()
	b.computeResiduals()
	b.bigM = float64(len(b.hosts)) + 2
	b.norm = NormOf(b.sys)
	return b
}

// allowProvide reports whether requested free stream s gets d variables in
// this model (see dAllowed).
func (b *builder) allowProvide(s dsps.StreamID) bool {
	return b.dAllowed == nil || b.dAllowed[s] || b.p.Admitted(s)
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
	forced := make(map[dsps.HostID]bool)
	st := b.p.Assignment()
	force := func(h dsps.HostID) {
		if b.sys.HostUsable(h) {
			forced[h] = true
		}
	}
	for f := range st.Flows {
		if b.free[f.Stream] {
			force(f.From)
			force(f.To)
		}
	}
	for pl := range st.Ops {
		if b.freeOpSet[pl.Op] {
			force(pl.Host)
			continue
		}
		// Fixed operator consuming a free stream (only possible with the
		// replanning ablation): its host must stay in scope so that the
		// availability-preservation constraint can be expressed.
		for _, in := range b.sys.Operators[pl.Op].Inputs {
			if b.free[in] {
				force(pl.Host)
			}
		}
	}
	for s, h := range st.Provides {
		if b.free[s] {
			force(h)
		}
	}

	// The base-stream locations of the *fresh* queries are mandatory: a
	// new query with no prior allocation can only be satisfied via flows
	// that originate at those hosts. (Sharing queries already have their
	// hosts forced through their existing flows and placements above.)
	for _, q := range b.queries {
		for _, s := range b.p.closures.streamsOf(q) {
			if b.sys.Streams[s].IsBase() {
				for _, h := range b.sys.BaseHosts(s) {
					force(h)
				}
			}
		}
	}

	allowed := func(h dsps.HostID) bool {
		return (b.p.allowedHosts == nil || b.p.allowedHosts[h]) && b.sys.HostPlaceable(h)
	}
	preferred := make(map[dsps.HostID]bool)
	for _, s := range b.freeStreams {
		if b.sys.Streams[s].IsBase() {
			for _, h := range b.sys.BaseHosts(s) {
				if allowed(h) {
					preferred[h] = true
				}
			}
		}
	}

	cap := b.p.cfg.MaxCandidateHosts
	if b.p.cfg.DisableReduction {
		cap = n
	}
	chosen := make(map[dsps.HostID]bool)
	for h := range forced {
		chosen[h] = true
	}
	// Add preferred hosts (base-stream holders) ordered by spare CPU.
	usage := st.ComputeUsage(b.sys)
	spare := func(h dsps.HostID) float64 { return b.sys.Hosts[h].CPU - usage.CPU[h] }
	var prefList []dsps.HostID
	for h := range preferred {
		if !chosen[h] {
			prefList = append(prefList, h)
		}
	}
	sort.Slice(prefList, func(i, j int) bool {
		si, sj := spare(prefList[i]), spare(prefList[j])
		if si != sj {
			return si > sj
		}
		return prefList[i] < prefList[j]
	})
	for _, h := range prefList {
		if len(chosen) >= cap {
			break
		}
		chosen[h] = true
	}
	// Fill with the globally most spare hosts.
	if len(chosen) < cap {
		var rest []dsps.HostID
		for h := 0; h < n; h++ {
			if !chosen[dsps.HostID(h)] && allowed(dsps.HostID(h)) {
				rest = append(rest, dsps.HostID(h))
			}
		}
		sort.Slice(rest, func(i, j int) bool {
			si, sj := spare(rest[i]), spare(rest[j])
			if si != sj {
				return si > sj
			}
			return rest[i] < rest[j]
		})
		for _, h := range rest {
			if len(chosen) >= cap {
				break
			}
			chosen[h] = true
		}
	}
	b.hosts = make([]dsps.HostID, 0, len(chosen))
	for h := range chosen {
		b.hosts = append(b.hosts, h)
	}
	sort.Slice(b.hosts, func(i, j int) bool { return b.hosts[i] < b.hosts[j] })
	b.hostIdx = make(map[dsps.HostID]int, len(b.hosts))
	for i, h := range b.hosts {
		b.hostIdx[h] = i
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
	st := b.p.Assignment()
	for pl := range st.Ops {
		if b.freeOpSet[pl.Op] {
			continue
		}
		if i, ok := b.hostIdx[pl.Host]; ok {
			b.resCPU[i] -= b.sys.Operators[pl.Op].Cost
			b.resMem[i] -= b.sys.Operators[pl.Op].Mem
		}
	}
	for f := range st.Flows {
		if b.free[f.Stream] {
			continue
		}
		rate := b.sys.Streams[f.Stream].Rate
		if i, ok := b.hostIdx[f.From]; ok {
			b.resOut[i] -= rate
			if j, ok2 := b.hostIdx[f.To]; ok2 {
				b.resLink[i][j] -= rate
			}
		}
		if j, ok := b.hostIdx[f.To]; ok {
			b.resIn[j] -= rate
		}
	}
	for s, h := range st.Provides {
		if b.free[s] {
			continue
		}
		if i, ok := b.hostIdx[h]; ok {
			b.resOut[i] -= b.sys.Streams[s].Rate
		}
	}
}

// addNoRelayRow emits the strengthened form of (III.5c) used by the relay
// ablation: a host may only send streams it originates (base stream or
// locally executed producer), never streams it merely received.
func (b *builder) addNoRelayRow(fk flowKey, xv milp.Var) {
	terms := []milp.Term{{Var: xv, Coef: 1}}
	rhs := 0.0
	if b.sys.IsBaseAt(fk.from, fk.s) {
		rhs += 1
	}
	for _, op := range b.sys.ProducersOf(fk.s) {
		if zv, ok := b.zVar[zKey{fk.from, op}]; ok {
			terms = append(terms, milp.Term{Var: zv, Coef: -1})
		} else if b.p.Assignment().Ops[dsps.Placement{Host: fk.from, Op: op}] {
			rhs += 1
		}
	}
	b.model.AddCons("no-relay", milp.LE, rhs, terms...)
}

// build assembles the MILP into the builder's pooled model.
func (b *builder) build() *milp.Model {
	m := b.model
	sys := b.sys
	st := b.p.Assignment()

	// --- Variables -----------------------------------------------------
	// Variable names are static family tags: per-variable formatted names
	// cost a Sprintf and a string allocation each on the hot submit path,
	// and nothing reads them back.
	// Branch priorities rank the decisions: admission (d) first — it
	// carries λ1 and shapes everything below — then availability (y), then
	// operator placement (z); flow routing (x) branches last (priority 0),
	// as its objective weight is smallest and most x values follow from the
	// other decisions anyway.
	for _, s := range b.freeStreams {
		stream := &sys.Streams[s]
		for _, h := range b.hosts {
			hk := hsKey{h, s}
			yv := m.AddBinary("y")
			m.SetBranchPriority(yv, 2)
			b.yVar[hk] = yv
			if stream.Requested && b.allowProvide(s) {
				dv := m.AddBinary("d")
				m.SetBranchPriority(dv, 3)
				b.dVar[hk] = dv
			}
			b.pVar[hk] = m.AddContinuous(0, b.bigM, "p")
		}
		for _, h := range b.hosts {
			for _, mm := range b.hosts {
				if h == mm {
					continue
				}
				b.xVar[flowKey{h, mm, s}] = m.AddBinary("x")
			}
		}
	}
	for _, o := range b.freeOps {
		for _, h := range b.hosts {
			zv := m.AddBinary("z")
			m.SetBranchPriority(zv, 1)
			b.zVar[zKey{h, o}] = zv
		}
	}
	maxCPU := 0.0
	for _, h := range sys.Hosts {
		if h.CPU > maxCPU {
			maxCPU = h.CPU
		}
	}
	b.lVar = m.AddContinuous(0, math.Max(maxCPU, 1), "L")

	// --- Demand constraints (III.4) -------------------------------------
	for _, s := range b.freeStreams {
		if !sys.Streams[s].Requested || !b.allowProvide(s) {
			continue
		}
		var sum []milp.Term
		for _, h := range b.hosts {
			hk := hsKey{h, s}
			d := b.dVar[hk]
			// (III.4a) d_hs <= y_hs (δ_s = 1 since s is requested here).
			m.AddCons("demand-avail", milp.LE, 0, milp.Term{Var: d, Coef: 1}, milp.Term{Var: b.yVar[hk], Coef: -1})
			sum = append(sum, milp.Term{Var: d, Coef: 1})
		}
		if b.p.Admitted(s) {
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
			hk := hsKey{h, s}
			terms := []milp.Term{{Var: b.yVar[hk], Coef: 1}}
			rhs := 0.0
			if sys.IsBaseAt(h, s) {
				rhs += 1 // 1[s ∈ S⁰_h]
			}
			for _, src := range b.hosts {
				if src == h {
					continue
				}
				if xv, ok := b.xVar[flowKey{src, h, s}]; ok {
					terms = append(terms, milp.Term{Var: xv, Coef: -1})
				}
			}
			for _, op := range sys.ProducersOf(s) {
				if zv, ok := b.zVar[zKey{h, op}]; ok {
					terms = append(terms, milp.Term{Var: zv, Coef: -1})
				} else if st.Ops[dsps.Placement{Host: h, Op: op}] {
					// A fixed operator already produces s at h.
					rhs += 1
				}
			}
			// (III.5a): y_hs <= Σ x + Σ z + base indicator.
			m.AddCons("avail", milp.LE, rhs, terms...)
		}
	}
	// (III.5b): z_ho <= y_hs for every input stream of o.
	for _, o := range b.freeOps {
		op := &sys.Operators[o]
		for _, h := range b.hosts {
			zv := b.zVar[zKey{h, o}]
			for _, in := range op.Inputs {
				yv, ok := b.yVar[hsKey{h, in}]
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
	// (III.5c): x_hms <= y_hs, or the production-only variant when stream
	// relaying is disabled for ablation.
	b.eachFlowVar(func(fk flowKey, xv milp.Var) {
		if b.p.cfg.DisableRelay {
			b.addNoRelayRow(fk, xv)
			return
		}
		yv := b.yVar[hsKey{fk.from, fk.s}]
		m.AddCons("send-avail", milp.LE, 0, milp.Term{Var: xv, Coef: 1}, milp.Term{Var: yv, Coef: -1})
	})

	// Availability preservation: fixed operators and fixed provides that
	// consume a free stream on a candidate host require the new plan to
	// keep the stream available there (arises under the replan ablation).
	b.addPreservationRows()

	// --- Resource constraints (III.6) ------------------------------------
	b.addResourceRows()

	// --- Acyclicity constraints (III.7) ----------------------------------
	b.eachFlowVar(func(fk flowKey, xv milp.Var) {
		ph := b.pVar[hsKey{fk.from, fk.s}]
		pm := b.pVar[hsKey{fk.to, fk.s}]
		// p_hs >= p_ms + 1 − M(1 − x) ⇔ p_h − p_m − M·x >= 1 − M.
		m.AddCons("acyclic", milp.GE, 1-b.bigM,
			milp.Term{Var: ph, Coef: 1}, milp.Term{Var: pm, Coef: -1}, milp.Term{Var: xv, Coef: -b.bigM})
	})

	// --- Objective (III.3) ------------------------------------------------
	b.setObjective()
	return m
}

// addPreservationRows forces y_hs = 1 wherever a fixed (non-free) element
// of the current allocation depends on free stream s at host h.
func (b *builder) addPreservationRows() {
	need := make(map[hsKey]bool)
	for pl := range b.p.Assignment().Ops {
		if b.freeOpSet[pl.Op] {
			continue
		}
		for _, in := range b.sys.Operators[pl.Op].Inputs {
			if b.free[in] {
				need[hsKey{pl.Host, in}] = true
			}
		}
	}
	// Rows go out in (stream, host) order, not map order: the row order
	// decides the LP's pivots, so it must be the same for the same input.
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			// A consuming host outside the candidate set has no y variable
			// and is skipped; forced hosts should prevent that.
			if hk := (hsKey{h, s}); need[hk] {
				b.model.AddCons("preserve-avail", milp.GE, 1, milp.Term{Var: b.yVar[hk], Coef: 1})
			}
		}
	}
}

// eachFlowVar visits the x variables in the order build created them.
// Ranging over b.xVar would visit them in map order, and the order rows are
// emitted in decides the LP's pivots: identical inputs have to compile to
// the identical model.
func (b *builder) eachFlowVar(visit func(flowKey, milp.Var)) {
	for _, s := range b.freeStreams {
		for _, h := range b.hosts {
			for _, mm := range b.hosts {
				if h != mm {
					fk := flowKey{h, mm, s}
					visit(fk, b.xVar[fk])
				}
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
			cpu = append(cpu, milp.Term{Var: b.zVar[zKey{h, o}], Coef: sys.Operators[o].Cost})
		}
		if len(cpu) > 0 {
			m.AddCons("cpu", milp.LE, b.resCPU[i], cpu...)
		}
		// Memory budget (future-work resource; zero budget = unconstrained).
		if sys.Hosts[h].Mem > 0 {
			var mem []milp.Term
			for _, o := range b.freeOps {
				if mu := sys.Operators[o].Mem; mu > 0 {
					mem = append(mem, milp.Term{Var: b.zVar[zKey{h, o}], Coef: mu})
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
				if xv, ok := b.xVar[flowKey{h, mm, s}]; ok {
					out = append(out, milp.Term{Var: xv, Coef: rate})
				}
			}
			if dv, ok := b.dVar[hsKey{h, s}]; ok {
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
				if xv, ok := b.xVar[flowKey{src, h, s}]; ok {
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
				if xv, ok := b.xVar[flowKey{h, mm, s}]; ok {
					link = append(link, milp.Term{Var: xv, Coef: sys.Streams[s].Rate})
				}
			}
			if len(link) > 0 {
				m.AddCons("link", milp.LE, b.resLink[i][j], link...)
			}
		}
	}
}

// setObjective installs λ1·O1 − λ2·O2 − λ3·O3 − λ4·O4 (maximisation).
func (b *builder) setObjective() {
	w := b.p.cfg.Weights
	sys := b.sys
	var terms []milp.Term
	for hk, dv := range b.dVar {
		coef := w.L1
		// Draining hosts should shed their client delivery points too:
		// the reduced reward still dwarfs every other term, so admission
		// is never sacrificed, but a provider that can move off moves.
		if sys.Hosts[hk.h].State == dsps.HostDraining {
			coef -= migrationWeight
		}
		terms = append(terms, milp.Term{Var: dv, Coef: coef})
	}
	for fk, xv := range b.xVar {
		terms = append(terms, milp.Term{Var: xv, Coef: -w.L2 * sys.Streams[fk.s].Rate / b.norm.Link})
	}
	for zk, zv := range b.zVar {
		coef := -w.L3 * sys.Operators[zk.o].Cost / b.norm.CPU
		// Repair's migration cost: moving a surviving operator off its
		// incumbent host forfeits the stay bonus, so migration only happens
		// when it buys admission or substantial placement quality.
		coef += b.stayBonus[zk]
		// Draining hosts repel load at the same magnitude a migration
		// costs (and the stay bonus never applies to them), so evacuation
		// is preferred whenever it is feasible — the penalty must exceed
		// the solver's repair gap tolerance or evacuations would sit
		// inside the allowed slack.
		if sys.Hosts[zk.h].State == dsps.HostDraining {
			coef -= migrationWeight
		}
		terms = append(terms, milp.Term{Var: zv, Coef: coef})
	}
	terms = append(terms, milp.Term{Var: b.lVar, Coef: -w.L4 / b.norm.MaxCPU})
	b.model.SetObjective(true, terms...)
}
