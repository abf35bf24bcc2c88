package dsps

import (
	"slices"
	"sync"

	"sqpr/internal/invariant"
)

// The scoped passes: what GarbageCollect and Validate would conclude after
// one request's change, computed over what the change touched instead of
// over the whole allocation. Each assumes the assignment it starts from is
// what the full pass leaves alone — collected for WithdrawAndCollect, valid
// for ValidateExtension — which plan.Ledger keeps true between calls, and
// each is exact under that assumption: the tests compare every one with
// its full pass.

// DeleteFlowsOfFunc turns off every transfer of stream s for which del
// reports true. It costs the run of s, not the whole list, and logs s as
// touched only when it deletes something.
func (a *Assignment) DeleteFlowsOfFunc(s StreamID, del func(Flow) bool) {
	lo, hi := a.flowSpan(s)
	if i := slices.IndexFunc(a.Flows[lo:hi], del); i >= 0 {
		a.touchStream(s)
		a.Flows = deleteRunFrom(a.Flows, lo+i, hi, del)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// DeletePlacementsOfFunc: see DeleteFlowsOfFunc, for the run of op.
func (a *Assignment) DeletePlacementsOfFunc(op OperatorID, del func(Placement) bool) {
	lo, hi := a.opSpan(op)
	if i := slices.IndexFunc(a.Ops[lo:hi], del); i >= 0 {
		a.touchOp(op)
		a.Ops = deleteRunFrom(a.Ops, lo+i, hi, del)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// deleteRunFrom deletes s[i], which del has reported, and the elements of
// s[i+1:hi] del reports, closing the gap with one shift of the tail.
func deleteRunFrom[T any](s []T, i, hi int, del func(T) bool) []T {
	kept := slices.DeleteFunc(s[i+1:hi], del)
	return slices.Delete(s, i+copy(s[i:], kept), hi)
}

// Collection marks, kept per availability in the value array beside the
// stamps: one epoch serves all three walks of WithdrawAndCollect.
const (
	inSupport uint32 = 1 << iota // reached backward from the withdrawn provide
	feeds                        // reached forward from the withdrawn support
	kept                         // reached backward from a provide still served
)

// collector is the state of one WithdrawAndCollect. seen.list holds the
// non-base availabilities of the withdrawn support.
type collector struct {
	a     *Assignment
	sys   *System
	seen  *Stamps
	marks []uint32 // seen.Vals(); an entry means something only once stamped
}

func (c *collector) has(i int, m uint32) bool { return c.seen.Stamped(i) && c.marks[i]&m != 0 }

func (c *collector) mark(i int, m uint32) {
	if c.seen.Stamp(i) {
		c.marks[i] = 0
	}
	c.marks[i] |= m
}

// WithdrawAndCollect withdraws the provide of q and deletes the operators
// and flows nothing needs any more, and reports whether q was provided. On
// an assignment GarbageCollect leaves unchanged, it leaves exactly what
// DeleteProvide followed by GarbageCollect would, in four steps:
//
//  1. walk q's support backward, as GarbageCollect walks every provide's:
//     only a piece whose target lies in it can have lost its last need;
//  2. walk forward from those availabilities, over the placements that
//     consume them and the flows that send them on, to the provides they
//     still feed;
//  3. walk back from just those provides, marking what stays needed;
//  4. delete the pieces of q's support whose target step 3 did not reach.
//
// The cost is q's support and the supports of the provides that share it,
// not the whole allocation. A forward walk stops where step 3 has already
// been: everything upstream of a needed availability is needed.
func (a *Assignment) WithdrawAndCollect(sys *System, q StreamID) bool {
	h, ok := a.Provider(q)
	if !ok {
		return false
	}
	a.DeleteProvide(q)
	c := collector{a: a, sys: sys, seen: GetStamps(sys)}
	defer c.seen.Release()
	c.marks = c.seen.Vals()
	c.back(h, q, inSupport)
	for _, i := range c.seen.list {
		c.forward(i)
	}
	for _, i := range c.seen.list {
		if c.has(i, kept) {
			continue
		}
		h, s := HostID(i/len(sys.Streams)), StreamID(i%len(sys.Streams))
		for _, op := range sys.ProducersOf(s) {
			a.DeleteOp(Placement{Host: h, Op: op})
		}
		a.DeleteFlowsOfFunc(s, func(f Flow) bool { return f.To == h })
	}
	return true
}

// back is WalkSupport's walk under mark m: every placed producer of (h, s)
// and every inflow into it, stopping at base streams and at what already
// carries m. The inSupport walk lists what it reaches in c.seen.list.
func (c *collector) back(h HostID, s StreamID, m uint32) {
	i := c.sys.HSIndex(h, s)
	if c.has(i, m) {
		return
	}
	c.mark(i, m)
	if c.sys.IsBaseAt(h, s) {
		return
	}
	if m == inSupport {
		c.seen.list = append(c.seen.list, i)
	}
	for _, op := range c.sys.ProducersOf(s) {
		if c.a.HasOp(Placement{Host: h, Op: op}) {
			for _, in := range c.sys.Operators[op].Inputs {
				c.back(h, in, m)
			}
		}
	}
	for _, f := range c.a.FlowsOf(s) {
		if f.To == h {
			c.back(f.From, s, m)
		}
	}
}

// forward follows back's edges the other way from availability i: to the
// output of each placement consuming it at its host and to the receiver of
// each flow sending it on, never into a base stream (back stops there). A
// provide it meets is walked back under kept.
func (c *collector) forward(i int) {
	if c.has(i, feeds|kept) {
		return
	}
	c.mark(i, feeds)
	sys := c.sys
	h, s := HostID(i/len(sys.Streams)), StreamID(i%len(sys.Streams))
	if p, ok := c.a.Provider(s); ok && p == h {
		c.back(h, s, kept)
		return
	}
	for _, op := range sys.ConsumersOf(s) {
		if out := sys.Operators[op].Output; c.a.HasOp(Placement{Host: h, Op: op}) && !sys.IsBaseAt(h, out) {
			c.forward(sys.HSIndex(h, out))
		}
	}
	for _, f := range c.a.FlowsOf(s) {
		if f.From == h && !sys.IsBaseAt(f.To, s) {
			c.forward(sys.HSIndex(f.To, s))
		}
	}
}

// Extension lists the pieces a change added to an assignment: placements,
// flows and provides it did not have before.
type Extension struct {
	Ops      []Placement
	Flows    []Flow
	Provides []Provide
}

// ValidateExtension reports whether a is feasible, as Validate would, for
// an a that is a valid assignment extended by the pieces of ext. Adding
// pieces derives more and uses more, so nothing the valid part held can
// fail; what is left to check is each new piece and the budgets of the
// hosts and links the new pieces touch. Causality is re-derived over the
// new pieces only: in a valid assignment an availability is derived exactly
// when it is a usable base placement or the target of a piece, so what the
// new pieces read from the old part is stamped by lookup, and the new
// pieces then derive to a fixed point. The touched budgets are summed over
// the whole assignment in ComputeUsage's order, so each compares the very
// float Validate would.
func (a *Assignment) ValidateExtension(sys *System, ext *Extension) error {
	if err := checkRanges(sys, ext.Provides, ext.Flows, ext.Ops); err != nil {
		return err
	}
	seen := GetStamps(sys)
	defer seen.Release()
	before := func(h HostID, s StreamID) {
		if a.targetBefore(sys, ext, h, s) {
			seen.Stamp(sys.HSIndex(h, s))
		}
	}
	for _, p := range ext.Provides {
		before(p.Host, p.Stream)
	}
	for _, pl := range ext.Ops {
		for _, in := range sys.Operators[pl.Op].Inputs {
			before(pl.Host, in)
		}
	}
	for _, f := range ext.Flows {
		before(f.From, f.Stream)
	}
	for changed := true; changed; {
		changed = false
		for _, pl := range ext.Ops {
			if out := sys.HSIndex(pl.Host, sys.Operators[pl.Op].Output); !seen.Stamped(out) {
				if _, missing := underivedInput(sys, seen, pl); !missing {
					changed = seen.Stamp(out) || changed
				}
			}
		}
		for _, f := range ext.Flows {
			if to := sys.HSIndex(f.To, f.Stream); !seen.Stamped(to) && derived(sys, seen, f.From, f.Stream) {
				changed = seen.Stamp(to) || changed
			}
		}
	}
	if err := pieceError(sys, seen, ext.Provides, ext.Ops, ext.Flows); err != nil {
		return err
	}
	return a.checkTouchedBudgets(sys, ext)
}

// targetBefore reports whether (h, s) is the target of a placement or flow
// of a that is not one of ext's: in the valid assignment a extends by ext,
// whether (h, s) was derived other than as a base placement.
func (a *Assignment) targetBefore(sys *System, ext *Extension, h HostID, s StreamID) bool {
	for _, op := range sys.ProducersOf(s) {
		if pl := (Placement{Host: h, Op: op}); a.HasOp(pl) && !slices.Contains(ext.Ops, pl) {
			return true
		}
	}
	for _, f := range a.FlowsOf(s) {
		if f.To == h && !slices.Contains(ext.Flows, f) {
			return true
		}
	}
	return false
}

// hostUse is one touched host's resource use, summed as ComputeUsage sums.
type hostUse struct {
	h                 HostID
	cpu, mem, out, in float64
}

// linkUse is one touched link's use.
type linkUse struct {
	from, to HostID
	use      float64
}

// budgetScratch is checkTouchedBudgets' pooled scratch: the touched hosts
// and links in the order ext first touches them, with their sums; slot,
// by HostID, a touched host's index in hosts (−1: untouched, which is how
// every entry is left between calls); and linkAt, by pair of host indices,
// a touched link's index in links (−1: untouched).
type budgetScratch struct {
	hosts  []hostUse
	links  []linkUse
	slot   []int32
	linkAt []int32
}

var budgetPool = sync.Pool{New: func() any { return new(budgetScratch) }}

// getBudgetScratch returns an empty pooled scratch sized for sys; put it
// back with release.
func getBudgetScratch(sys *System) *budgetScratch {
	bs := budgetPool.Get().(*budgetScratch)
	for len(bs.slot) < sys.NumHosts() {
		bs.slot = append(bs.slot, -1)
	}
	bs.hosts, bs.links = bs.hosts[:0], bs.links[:0]
	return bs
}

// release un-marks the touched hosts and returns bs to the pool.
func (bs *budgetScratch) release() {
	for _, u := range bs.hosts {
		bs.slot[u.h] = -1
	}
	budgetPool.Put(bs)
}

// touch adds host h to the touched hosts and returns its index.
//
//sqpr:hotpath
func (bs *budgetScratch) touch(h HostID) int32 {
	if i := bs.slot[h]; i >= 0 {
		return i
	}
	bs.slot[h] = int32(len(bs.hosts))
	bs.hosts = append(bs.hosts, hostUse{h: h}) //sqpr:amortized pooled
	return bs.slot[h]
}

// checkTouchedBudgets checks (III.6) on the hosts and links ext's pieces
// touch, as Validate's budget loop would. Each touched host and link sums
// its use over the whole assignment in ComputeUsage's order, so it compares
// the very float Validate would; a piece finds its host's sums through the
// slot table, so the pass costs the allocation once, whatever ext touches.
//
//sqpr:hotpath
func (a *Assignment) checkTouchedBudgets(sys *System, ext *Extension) error {
	bs := getBudgetScratch(sys)
	defer bs.release()
	for _, pl := range ext.Ops {
		bs.touch(pl.Host)
	}
	for _, f := range ext.Flows {
		bs.touch(f.From)
		bs.touch(f.To)
	}
	for _, p := range ext.Provides {
		bs.touch(p.Host)
	}
	// A touched link joins two touched hosts, so linkAt spans their pairs.
	k := int32(len(bs.hosts))
	bs.linkAt = bs.linkAt[:0]
	for range k * k {
		bs.linkAt = append(bs.linkAt, -1) //sqpr:amortized pooled
	}
	for _, f := range ext.Flows {
		if at := &bs.linkAt[bs.slot[f.From]*k+bs.slot[f.To]]; *at < 0 {
			*at = int32(len(bs.links))
			bs.links = append(bs.links, linkUse{from: f.From, to: f.To}) //sqpr:amortized pooled
		}
	}
	hosts, slot := bs.hosts, bs.slot
	for _, pl := range a.Ops {
		if i := slot[pl.Host]; i >= 0 {
			op := &sys.Operators[pl.Op]
			hosts[i].cpu += op.Cost
			hosts[i].mem += op.Mem
		}
	}
	for _, f := range a.Flows {
		i, j := slot[f.From], slot[f.To]
		if i < 0 && j < 0 {
			continue
		}
		rate := sys.Streams[f.Stream].Rate
		if i >= 0 && j >= 0 {
			if l := bs.linkAt[i*k+j]; l >= 0 {
				bs.links[l].use += rate
			}
		}
		if i >= 0 {
			hosts[i].out += rate
		}
		if j >= 0 {
			hosts[j].in += rate
		}
	}
	for _, p := range a.Provides {
		if i := slot[p.Host]; i >= 0 {
			hosts[i].out += sys.Streams[p.Stream].Rate
		}
	}
	for _, u := range hosts {
		if err := hostBudgetError(sys, u.h, u.cpu, u.mem, u.out, u.in); err != nil {
			return err
		}
	}
	for _, l := range bs.links {
		if over(l.use, sys.LinkCap[l.from][l.to], ValidateTol) {
			return linkBudgetError(sys, l.from, l.to, l.use)
		}
	}
	return nil
}
