package dsps

import (
	"cmp"
	"fmt"
	"slices"

	"sqpr/internal/invariant"
)

// Flow identifies one stream transfer between two hosts (variable x_hms).
type Flow struct {
	From, To HostID
	Stream   StreamID
}

// Placement identifies one operator execution on a host (variable z_ho).
type Placement struct {
	Host HostID
	Op   OperatorID
}

// Provide binds a requested stream to the host serving it to clients
// (d_hs = 1).
type Provide struct {
	Stream StreamID `json:"stream"`
	Host   HostID   `json:"host"`
}

// Assignment is a complete allocation state of the DSPS: the (d, x, y, z)
// variables of the optimisation model in sparse form. The potentials p are
// not stored; causality is re-derivable (see Validate).
//
// Each slice is kept sorted in wire order and free of duplicates, so every
// lookup is a binary search, the pieces touching one stream or operator are
// contiguous, and two assignments compare by a linear merge. Code outside
// this package only ranges over the slices or takes their len; the methods
// below are the only writers, and each keeps the order.
type Assignment struct {
	// Provides lists, by stream, the host serving each requested stream to
	// clients. At most one host serves each stream (III.4b).
	Provides []Provide
	// Flows holds every active inter-host transfer (x_hms = 1), in
	// CompareFlows order: (Stream, From, To).
	Flows []Flow
	// Ops holds every operator placement (z_ho = 1), in ComparePlacements
	// order: (Op, Host).
	Ops []Placement

	// touches is the change record the mutators log into (nil: none), and
	// epoch the record's epoch this allocation belongs to (see Touches).
	touches *Touches
	epoch   uint64
}

// NewAssignment returns an empty allocation (the initial solution of
// Algorithm 1, line 1).
func NewAssignment() *Assignment { return new(Assignment) }

// Clone deep-copies the assignment. The copy logs into a's change record,
// if a has one (see Touches).
func (a *Assignment) Clone() *Assignment {
	return &Assignment{
		Provides: slices.Clone(a.Provides),
		Flows:    slices.Clone(a.Flows),
		Ops:      slices.Clone(a.Ops),
		touches:  a.touches,
		epoch:    a.epoch,
	}
}

// CompareFlows orders flows by (Stream, From, To), ComparePlacements orders
// placements by (Op, Host) and CompareProvides orders provides by stream:
// the order Assignment keeps and the wire order of assignment files,
// snapshots and journal deltas.
func CompareFlows(a, b Flow) int {
	return cmp.Or(cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// ComparePlacements: see CompareFlows.
func ComparePlacements(a, b Placement) int {
	return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Host, b.Host))
}

// CompareProvides: see CompareFlows.
func CompareProvides(a, b Provide) int { return cmp.Compare(a.Stream, b.Stream) }

// The lookups below compare ids inline: a range search by the leading key
// (stream, operator), then a search of that short run by the full key. The
// first search leaves lo at the run's start and hi there too (the binary
// search ends with lo == hi), where the gallop to the run's end begins.

// flowSpan returns the bounds of stream s's run of a.Flows.
func (a *Assignment) flowSpan(s StreamID) (int, int) {
	fs := a.Flows
	lo, hi := 0, len(fs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); fs[m].Stream < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// A run is a few pieces long: gallop from its start past its end, then
	// search the last step.
	end := lo
	for step := 1; hi < len(fs) && fs[hi].Stream == s; step *= 2 {
		end, hi = hi+1, hi+step
	}
	for hi = min(hi, len(fs)); end < hi; {
		if m := int(uint(end+hi) >> 1); fs[m].Stream == s {
			end = m + 1
		} else {
			hi = m
		}
	}
	return lo, end
}

// opSpan returns the bounds of operator op's run of a.Ops.
func (a *Assignment) opSpan(op OperatorID) (int, int) {
	ops := a.Ops
	lo, hi := 0, len(ops)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ops[m].Op < op {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for step := 1; hi < len(ops) && ops[hi].Op == op; step *= 2 {
		end, hi = hi+1, hi+step
	}
	for hi = min(hi, len(ops)); end < hi; {
		if m := int(uint(end+hi) >> 1); ops[m].Op == op {
			end = m + 1
		} else {
			hi = m
		}
	}
	return lo, end
}

// provideIndex returns where stream s's provide is or would go in
// a.Provides, and whether it is there.
func (a *Assignment) provideIndex(s StreamID) (int, bool) {
	ps := a.Provides
	lo, hi := 0, len(ps)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ps[m].Stream < s {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ps) && ps[lo].Stream == s
}

// flowIndex returns where f is or would go in a.Flows, and whether it is
// there.
func (a *Assignment) flowIndex(f Flow) (int, bool) {
	lo, hi := a.flowSpan(f.Stream)
	i, ok := slices.BinarySearchFunc(a.Flows[lo:hi], f, CompareFlows)
	return lo + i, ok
}

// opIndex returns where pl is or would go in a.Ops, and whether it is there.
func (a *Assignment) opIndex(pl Placement) (int, bool) {
	lo, hi := a.opSpan(pl.Op)
	i, ok := slices.BinarySearchFunc(a.Ops[lo:hi], pl, ComparePlacements)
	return lo + i, ok
}

// Provider returns the host serving stream s, if any.
func (a *Assignment) Provider(s StreamID) (HostID, bool) {
	i, ok := a.provideIndex(s)
	if !ok {
		return 0, false
	}
	return a.Provides[i].Host, true
}

// HasFlow reports whether transfer f is active.
func (a *Assignment) HasFlow(f Flow) bool {
	_, ok := a.flowIndex(f)
	return ok
}

// HasOp reports whether placement pl is active.
func (a *Assignment) HasOp(pl Placement) bool {
	_, ok := a.opIndex(pl)
	return ok
}

// FlowsOf returns the active transfers of stream s, ordered by (From, To).
// The result aliases the assignment: it is valid until the next mutation
// and must not be appended to.
func (a *Assignment) FlowsOf(s StreamID) []Flow {
	lo, hi := a.flowSpan(s)
	return a.Flows[lo:hi:hi]
}

// PlacementsOf returns the hosts running operator op as placements ordered
// by host. The result aliases the assignment like FlowsOf's.
func (a *Assignment) PlacementsOf(op OperatorID) []Placement {
	lo, hi := a.opSpan(op)
	return a.Ops[lo:hi:hi]
}

// SetProvide makes h the provider of stream s, replacing any previous one.
//
//sqpr:hotpath
func (a *Assignment) SetProvide(s StreamID, h HostID) {
	i, ok := a.provideIndex(s)
	if !ok || a.Provides[i].Host != h {
		a.touchStream(s)
	}
	if ok {
		a.Provides[i].Host = h
	} else {
		a.Provides = insertAt(a.Provides, i, Provide{Stream: s, Host: h})
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// DeleteProvide withdraws the provide of s and reports whether there was one.
//
//sqpr:hotpath
func (a *Assignment) DeleteProvide(s StreamID) bool {
	i, ok := a.provideIndex(s)
	if ok {
		a.touchStream(s)
		a.Provides = slices.Delete(a.Provides, i, i+1)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
	return ok
}

// AddFlow turns transfer f on and reports whether it was off.
//
//sqpr:hotpath
func (a *Assignment) AddFlow(f Flow) bool {
	i, ok := a.flowIndex(f)
	if !ok {
		a.touchStream(f.Stream)
		a.Flows = insertAt(a.Flows, i, f)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
	return !ok
}

// DeleteFlow turns transfer f off and reports whether it was on.
//
//sqpr:hotpath
func (a *Assignment) DeleteFlow(f Flow) bool {
	i, ok := a.flowIndex(f)
	if ok {
		a.touchStream(f.Stream)
		a.Flows = slices.Delete(a.Flows, i, i+1)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
	return ok
}

// AddOp turns placement pl on and reports whether it was off.
//
//sqpr:hotpath
func (a *Assignment) AddOp(pl Placement) bool {
	i, ok := a.opIndex(pl)
	if !ok {
		a.touchOp(pl.Op)
		a.Ops = insertAt(a.Ops, i, pl)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
	return !ok
}

// DeleteOp turns placement pl off and reports whether it was on.
//
//sqpr:hotpath
func (a *Assignment) DeleteOp(pl Placement) bool {
	i, ok := a.opIndex(pl)
	if ok {
		a.touchOp(pl.Op)
		a.Ops = slices.Delete(a.Ops, i, i+1)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
	return ok
}

// The Delete*Func mutators call del once per element. A tracked
// assignment logs the matches before it deletes them: the delete shuffles
// the slice as it goes, and logging reads it.

// DeleteProvidesFunc withdraws every provide for which del reports true.
func (a *Assignment) DeleteProvidesFunc(del func(Provide) bool) {
	if a.recording() {
		at := a.touches.marks[:0]
		for i, p := range a.Provides {
			if del(p) {
				a.touchStream(p.Stream)
				at = append(at, i)
			}
		}
		a.touches.marks = at
		a.Provides = deleteAt(a.Provides, at)
	} else {
		a.Provides = slices.DeleteFunc(a.Provides, del)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// DeleteFlowsFunc turns off every transfer for which del reports true.
func (a *Assignment) DeleteFlowsFunc(del func(Flow) bool) {
	if a.recording() {
		at := a.touches.marks[:0]
		for i, f := range a.Flows {
			if del(f) {
				a.touchStream(f.Stream)
				at = append(at, i)
			}
		}
		a.touches.marks = at
		a.Flows = deleteAt(a.Flows, at)
	} else {
		a.Flows = slices.DeleteFunc(a.Flows, del)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// DeleteOpsFunc turns off every placement for which del reports true.
func (a *Assignment) DeleteOpsFunc(del func(Placement) bool) {
	if a.recording() {
		at := a.touches.marks[:0]
		for i, pl := range a.Ops {
			if del(pl) {
				a.touchOp(pl.Op)
				at = append(at, i)
			}
		}
		a.touches.marks = at
		a.Ops = deleteAt(a.Ops, at)
	} else {
		a.Ops = slices.DeleteFunc(a.Ops, del)
	}
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// deleteAt removes the elements at the ascending indices at from s and
// zeroes the vacated tail, as slices.DeleteFunc does.
func deleteAt[T any](s []T, at []int) []T {
	if len(at) == 0 {
		return s
	}
	w := at[0]
	for k, i := range at {
		end := len(s)
		if k+1 < len(at) {
			end = at[k+1]
		}
		w += copy(s[w:], s[i+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// EditProvides withdraws the provides of del, then binds each of set,
// replacing a previous provider. EditFlows and EditOps delete del, then add
// add. They are the bulk writers (a journal delta, a decoded solve): the
// lists may come in any order and repeat keys (the last binding of a stream
// wins), and an edit costs one merge with the assignment — plus one sort of
// a list that is not already in order.
func (a *Assignment) EditProvides(del []StreamID, set []Provide) {
	if len(del) == 0 && len(set) == 0 {
		return
	}
	dels := make([]Provide, len(del))
	for i, s := range del {
		dels[i].Stream = s
		a.touchStream(s)
	}
	for _, p := range set {
		a.touchStream(p.Stream)
	}
	a.Provides = EditSorted(a.Provides, dels, set, CompareProvides)
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// EditFlows: see EditProvides.
func (a *Assignment) EditFlows(del, add []Flow) {
	for _, l := range [2][]Flow{del, add} {
		for _, f := range l {
			a.touchStream(f.Stream)
		}
	}
	a.Flows = EditSorted(a.Flows, del, add, CompareFlows)
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// EditOps: see EditProvides.
func (a *Assignment) EditOps(del, add []Placement) {
	for _, l := range [2][]Placement{del, add} {
		for _, pl := range l {
			a.touchOp(pl.Op)
		}
	}
	a.Ops = EditSorted(a.Ops, del, add, ComparePlacements)
	if invariant.Enabled {
		a.mustBeOrdered()
	}
}

// checkOrder reports the first slice of a that is out of order or repeats a
// key.
func (a *Assignment) checkOrder() error {
	switch {
	case !strictlyOrdered(a.Provides, CompareProvides):
		return fmt.Errorf("dsps: provides are not sorted by stream without repeats")
	case !strictlyOrdered(a.Flows, CompareFlows):
		return fmt.Errorf("dsps: flows are not sorted by (stream, from, to) without repeats")
	case !strictlyOrdered(a.Ops, ComparePlacements):
		return fmt.Errorf("dsps: placements are not sorted by (op, host) without repeats")
	}
	return nil
}

// mustBeOrdered is the checked-build assertion every mutator ends with.
func (a *Assignment) mustBeOrdered() {
	if err := a.checkOrder(); err != nil {
		invariant.Failf("%v", err)
	}
}

// Available reports whether stream s is available at host h (the derived
// availability variable y_hs): s is a base stream at h, an inflow brings s
// to h, or an operator at h outputs s.
func (a *Assignment) Available(sys *System, h HostID, s StreamID) bool {
	if sys.IsBaseAt(h, s) {
		return true
	}
	for _, f := range a.FlowsOf(s) {
		if f.To == h {
			return true
		}
	}
	for _, op := range sys.ProducersOf(s) {
		if a.HasOp(Placement{Host: h, Op: op}) {
			return true
		}
	}
	return false
}

// HoldersOf appends to dst the hosts where stream s is available — those
// for which Available reports true, down hosts included — in ascending
// order without repeats. It reads the runs of s: its base hosts, the
// targets of its flows and the hosts running one of its producers.
//
//sqpr:hotpath
func (a *Assignment) HoldersOf(sys *System, s StreamID, dst []HostID) []HostID {
	start := len(dst)
	dst = append(dst, sys.BaseHosts(s)...) //sqpr:amortized pooled by the caller
	for _, f := range a.FlowsOf(s) {
		dst = append(dst, f.To) //sqpr:amortized
	}
	for _, op := range sys.ProducersOf(s) {
		for _, pl := range a.PlacementsOf(op) {
			dst = append(dst, pl.Host) //sqpr:amortized
		}
	}
	held := dst[start:]
	slices.Sort(held)
	return dst[:start+len(slices.Compact(held))]
}

// Usage is the resource ledger of an assignment: filled by Reset (or
// ComputeUsage) and then kept current through the Add* methods, so a
// planner probing trial placements (with Fits*) never recomputes it.
type Usage struct {
	CPU     []float64   // per-host CPU use Σ_o γ_o z_ho
	Mem     []float64   // per-host memory use Σ_o mem_o z_ho
	Out     []float64   // per-host outgoing bandwidth incl. client deliveries
	In      []float64   // per-host incoming bandwidth
	Link    [][]float64 // per-link usage Σ_s ̺_s x_hms
	Network float64     // system-wide network usage (objective O2)
	// CPUSum is Σ_o γ_o z_ho accumulated placement by placement. Unlike
	// TotalCPU it does not depend on which host an operator lands on, so
	// trial plans placing the same operators compare exactly equal.
	CPUSum float64

	sys *System
}

// Reset recomputes the ledger of a from scratch, reusing u's arrays.
func (u *Usage) Reset(sys *System, a *Assignment) {
	n := sys.NumHosts()
	u.sys = sys
	u.CPU = resizeZero(u.CPU, n)
	u.Mem = resizeZero(u.Mem, n)
	u.Out = resizeZero(u.Out, n)
	u.In = resizeZero(u.In, n)
	if cap(u.Link) < n {
		u.Link = make([][]float64, n)
	}
	u.Link = u.Link[:n]
	for i := range u.Link {
		u.Link[i] = resizeZero(u.Link[i], n)
	}
	u.Network, u.CPUSum = 0, 0
	for _, pl := range a.Ops {
		u.AddOp(pl)
	}
	for _, f := range a.Flows {
		u.AddFlow(f)
	}
	for _, p := range a.Provides {
		u.AddProvide(p.Host, p.Stream)
	}
}

func resizeZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// AddOp charges one operator placement.
//
//sqpr:hotpath
func (u *Usage) AddOp(pl Placement) {
	op := &u.sys.Operators[pl.Op]
	u.CPU[pl.Host] += op.Cost
	u.Mem[pl.Host] += op.Mem
	u.CPUSum += op.Cost
}

// AddFlow charges one inter-host transfer.
//
//sqpr:hotpath
func (u *Usage) AddFlow(f Flow) {
	rate := u.sys.Streams[f.Stream].Rate
	u.Link[f.From][f.To] += rate
	u.Out[f.From] += rate
	u.In[f.To] += rate
	u.Network += rate
}

// AddProvide charges the delivery of s from h to the client proxy (III.6c).
//
//sqpr:hotpath
func (u *Usage) AddProvide(h HostID, s StreamID) { u.Out[h] += u.sys.Streams[s].Rate }

// The capacity rules (III.6), stated once. A budget holds while use stays
// within a tolerance of it; the tolerance is the only thing callers choose.
// Planners probe with FitTol and Validate accepts with the looser
// ValidateTol, so rounding never makes Validate refuse what a probe let in.
const (
	FitTol      = 1e-9
	ValidateTol = 1e-6
)

// over is the one comparison every capacity check is built on.
func over(use, budget, tol float64) bool { return use > budget+tol }

// FitsOp reports whether host pl.Host has the CPU and, where it has a
// memory budget (zero = unconstrained), the memory for one more placement
// of pl.Op (III.6d).
//
//sqpr:hotpath
func (u *Usage) FitsOp(pl Placement, tol float64) bool {
	op, host := &u.sys.Operators[pl.Op], &u.sys.Hosts[pl.Host]
	return !over(u.CPU[pl.Host]+op.Cost, host.CPU, tol) &&
		(host.Mem <= 0 || !over(u.Mem[pl.Host]+op.Mem, host.Mem, tol))
}

// FitsFlow reports whether the link and both host interfaces have room for
// one more transfer f (III.6a–c).
//
//sqpr:hotpath
func (u *Usage) FitsFlow(f Flow, tol float64) bool {
	rate := u.sys.Streams[f.Stream].Rate
	return !over(u.Link[f.From][f.To]+rate, u.sys.LinkCap[f.From][f.To], tol) &&
		!over(u.Out[f.From]+rate, u.sys.Hosts[f.From].OutBW, tol) &&
		!over(u.In[f.To]+rate, u.sys.Hosts[f.To].InBW, tol)
}

// FitsProvide reports whether h has the outgoing bandwidth to deliver s to
// its client (III.6c).
//
//sqpr:hotpath
func (u *Usage) FitsProvide(h HostID, s StreamID, tol float64) bool {
	return !over(u.Out[h]+u.sys.Streams[s].Rate, u.sys.Hosts[h].OutBW, tol)
}

// ComputeUsage derives full resource consumption from the assignment.
func (a *Assignment) ComputeUsage(sys *System) *Usage {
	u := new(Usage)
	u.Reset(sys, a)
	return u
}

// MaxCPU returns the largest per-host CPU consumption (objective O4).
func (u *Usage) MaxCPU() float64 {
	var m float64
	for _, c := range u.CPU {
		if c > m {
			m = c
		}
	}
	return m
}

// TotalCPU returns Σ CPU use (objective O3).
func (u *Usage) TotalCPU() float64 {
	var t float64
	for _, c := range u.CPU {
		t += c
	}
	return t
}

// CheckIDs reports the first host, stream or operator id of the assignment
// that lies outside sys, or the first slice out of order or repeating a
// key. Assignments decoded from journals, snapshots and files carry
// whatever ids the bytes held; everything below indexes the system's tables
// with them and binary-searches the slices, so this is the gate that turns
// bad input into an error instead of a panic or a wrong answer.
func (a *Assignment) CheckIDs(sys *System) error {
	if err := checkRanges(sys, a.Provides, a.Flows, a.Ops); err != nil {
		return err
	}
	return a.checkOrder()
}

// checkRanges reports the first piece naming a host, stream or operator
// outside sys.
func checkRanges(sys *System, provides []Provide, flows []Flow, ops []Placement) error {
	host := func(h HostID) bool { return h >= 0 && int(h) < len(sys.Hosts) }
	stream := func(s StreamID) bool { return s >= 0 && int(s) < len(sys.Streams) }
	for _, p := range provides {
		if !stream(p.Stream) || !host(p.Host) {
			return fmt.Errorf("dsps: provide of stream %d at host %d is outside the system", p.Stream, p.Host)
		}
	}
	for _, f := range flows {
		if !stream(f.Stream) || !host(f.From) || !host(f.To) {
			return fmt.Errorf("dsps: flow of stream %d from host %d to host %d is outside the system", f.Stream, f.From, f.To)
		}
	}
	for _, pl := range ops {
		if pl.Op < 0 || int(pl.Op) >= len(sys.Operators) || !host(pl.Host) {
			return fmt.Errorf("dsps: placement of operator %d on host %d is outside the system", pl.Op, pl.Host)
		}
	}
	return nil
}

// HSIndex is the dense index of availability (h, s): host and stream ids
// are slice indices, so per-(host, stream) sets are flat arrays of
// len(sys.Hosts)*len(sys.Streams) entries.
func (sys *System) HSIndex(h HostID, s StreamID) int {
	return int(h)*len(sys.Streams) + int(s)
}

// derive is the availability fixed point of the causality rule (III.7): a
// stream is derived at a host if it is a base stream there and the host is
// usable, if a placed operator with all inputs already derived outputs it
// there, or if a flow carries it from a host where it is already derived.
// What is never derived has no real source: a missing input, or the
// self-sustaining feedback loop the potentials p exclude. derive stamps
// seen, under its current epoch, at every availability it reaches beyond
// the base placements; derived reads the result.
func (a *Assignment) derive(sys *System, seen *Stamps) {
	for changed := true; changed; {
		changed = false
		for _, pl := range a.Ops {
			out := sys.Operators[pl.Op].Output
			if derived(sys, seen, pl.Host, out) {
				continue
			}
			if _, missing := underivedInput(sys, seen, pl); !missing {
				seen.Stamp(sys.HSIndex(pl.Host, out))
				changed = true
			}
		}
		for _, f := range a.Flows {
			if !derived(sys, seen, f.To, f.Stream) && derived(sys, seen, f.From, f.Stream) {
				seen.Stamp(sys.HSIndex(f.To, f.Stream))
				changed = true
			}
		}
	}
}

// derived reports whether derive reached availability (h, s).
func derived(sys *System, seen *Stamps, h HostID, s StreamID) bool {
	return seen.Stamped(sys.HSIndex(h, s)) || sys.IsBaseAt(h, s) && sys.HostUsable(h)
}

// underivedInput returns an input of pl that is not derived at its host.
func underivedInput(sys *System, seen *Stamps, pl Placement) (StreamID, bool) {
	for _, in := range sys.Operators[pl.Op].Inputs {
		if !derived(sys, seen, pl.Host, in) {
			return in, true
		}
	}
	return 0, false
}

// Validate checks that the assignment is a feasible allocation for the
// system: demand, availability, resource and acyclicity constraints
// (III.4)–(III.7) all hold. It returns nil when feasible.
func (a *Assignment) Validate(sys *System) error {
	if err := a.CheckIDs(sys); err != nil {
		return err
	}
	// Nothing may run on, originate at, or terminate at a down host
	// (draining hosts remain valid for existing allocations), and every
	// availability an allocation relies on must be derived. Possession
	// (III.4a, III.5b, III.5c) is the weaker form of derivation, so the one
	// check covers it and acyclicity (III.7) both. Base streams count at
	// usable hosts only; that cannot hide an error, because every piece
	// touching a down host is rejected here by itself.
	seen := GetStamps(sys)
	defer seen.Release()
	a.derive(sys, seen)
	if err := pieceError(sys, seen, a.Provides, a.Ops, a.Flows); err != nil {
		return err
	}

	// (III.6) resource budgets.
	n := sys.NumHosts()
	u := a.ComputeUsage(sys)
	for h := 0; h < n; h++ {
		if err := hostBudgetError(sys, HostID(h), u.CPU[h], u.Mem[h], u.Out[h], u.In[h]); err != nil {
			return err
		}
		for m := 0; m < n; m++ {
			if over(u.Link[h][m], sys.LinkCap[h][m], ValidateTol) {
				return linkBudgetError(sys, HostID(h), HostID(m), u.Link[h][m])
			}
		}
	}
	return nil
}

// pieceError reports the first rule of (III.4), (III.5) and (III.7) one of
// the pieces breaks, given the availabilities derivation stamped in seen.
// Validate asks it of every piece; ValidateExtension of the new ones.
func pieceError(sys *System, seen *Stamps, provides []Provide, ops []Placement, flows []Flow) error {
	for _, p := range provides {
		s, h := p.Stream, p.Host
		if !sys.HostUsable(h) {
			return fmt.Errorf("dsps: stream %d provided by down host %d", s, h)
		}
		// (III.4b) one host per stream: CheckIDs rejected repeated streams.
		if !sys.Streams[s].Requested {
			return fmt.Errorf("dsps: host %d provides unrequested stream %d", h, s)
		}
		if !derived(sys, seen, h, s) {
			return fmt.Errorf("dsps: provided stream %d at host %d is acausal", s, h)
		}
	}
	for _, pl := range ops {
		if !sys.HostUsable(pl.Host) {
			return fmt.Errorf("dsps: operator %d placed on down host %d", pl.Op, pl.Host)
		}
		if in, missing := underivedInput(sys, seen, pl); missing {
			return fmt.Errorf("dsps: operator %d on host %d has acausal input stream %d", pl.Op, pl.Host, in)
		}
	}
	for _, f := range flows {
		if !sys.HostUsable(f.From) {
			return fmt.Errorf("dsps: flow of stream %d from down host %d", f.Stream, f.From)
		}
		if !sys.HostUsable(f.To) {
			return fmt.Errorf("dsps: flow of stream %d to down host %d", f.Stream, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("dsps: self-flow of stream %d at host %d", f.Stream, f.From)
		}
		if !derived(sys, seen, f.From, f.Stream) {
			return fmt.Errorf("dsps: acausal flow of stream %d from host %d (no real source)", f.Stream, f.From)
		}
	}
	return nil
}

// hostBudgetError checks host h's uses against its (III.6) budgets.
func hostBudgetError(sys *System, h HostID, cpu, mem, out, in float64) error {
	const tol = ValidateTol
	host := &sys.Hosts[h]
	switch {
	case over(cpu, host.CPU, tol):
		return fmt.Errorf("dsps: host %d CPU %.3f exceeds budget %.3f", h, cpu, host.CPU)
	case host.Mem > 0 && over(mem, host.Mem, tol):
		return fmt.Errorf("dsps: host %d memory %.3f exceeds budget %.3f", h, mem, host.Mem)
	case over(out, host.OutBW, tol):
		return fmt.Errorf("dsps: host %d out-bandwidth %.3f exceeds budget %.3f", h, out, host.OutBW)
	case over(in, host.InBW, tol):
		return fmt.Errorf("dsps: host %d in-bandwidth %.3f exceeds budget %.3f", h, in, host.InBW)
	}
	return nil
}

// linkBudgetError is the error of a link h→m whose use is over its
// capacity. Callers compare in line: Validate does so H² times.
func linkBudgetError(sys *System, h, m HostID, use float64) error {
	return fmt.Errorf("dsps: link %d->%d usage %.3f exceeds capacity %.3f", h, m, use, sys.LinkCap[h][m])
}

// SatisfiedQueries returns the number of requested streams currently served
// (objective O1), i.e. Σ d_hs.
func (a *Assignment) SatisfiedQueries() int { return len(a.Provides) }

// WalkSupport visits everything availability (h, s) rests on, backwards
// and through every alternative: each operator placed at h that outputs s
// (then its inputs at h) and each flow bringing s into h (then s at the
// sender), stopping at base streams. onOp and onFlow, when non-nil, see
// each such placement and flow once and stop the walk by returning false;
// WalkSupport reports whether it ran to completion.
//
// seen (from GetStamps) is stamped at every availability reached. Walks
// under one epoch share what they have visited, so many roots cost one
// traversal; seen.Next starts an independent walk.
func (a *Assignment) WalkSupport(sys *System, h HostID, s StreamID, seen *Stamps, onOp func(Placement) bool, onFlow func(Flow) bool) bool {
	if !seen.Stamp(sys.HSIndex(h, s)) || sys.IsBaseAt(h, s) {
		return true
	}
	for _, op := range sys.ProducersOf(s) {
		pl := Placement{Host: h, Op: op}
		if !a.HasOp(pl) {
			continue
		}
		if onOp != nil && !onOp(pl) {
			return false
		}
		for _, in := range sys.Operators[op].Inputs {
			if !a.WalkSupport(sys, h, in, seen, onOp, onFlow) {
				return false
			}
		}
	}
	for _, f := range a.FlowsOf(s) {
		if f.To != h {
			continue
		}
		if onFlow != nil && !onFlow(f) {
			return false
		}
		if !a.WalkSupport(sys, f.From, s, seen, onOp, onFlow) {
			return false
		}
	}
	return true
}

// GarbageCollect deletes operators and flows not backward-reachable from
// any provided stream. All alternative supports of a needed availability
// are kept (conservative), so a feasible assignment stays feasible. It is
// the shared second half of query removal (§IV-B "conceptually removing
// and re-adding queries") used by every planner's Remove.
func (a *Assignment) GarbageCollect(sys *System) {
	seen := GetStamps(sys)
	defer seen.Release()
	for _, p := range a.Provides {
		a.WalkSupport(sys, p.Host, p.Stream, seen, nil, nil)
	}
	// The walk keeps every producer and every inflow of each availability
	// it reaches, so a piece is needed exactly when its target was reached.
	needed := func(h HostID, s StreamID) bool {
		return seen.Stamped(sys.HSIndex(h, s)) && !sys.IsBaseAt(h, s)
	}
	a.DeleteOpsFunc(func(pl Placement) bool { return !needed(pl.Host, sys.Operators[pl.Op].Output) })
	a.DeleteFlowsFunc(func(f Flow) bool { return !needed(f.To, f.Stream) })
}

// AffectedQueries returns the provided streams whose current support — the
// providing host, or any operator placement or flow endpoint backward-
// reachable from it — touches a host for which affected reports true. The
// result is sorted ascending. It is the shared first step of churn repair:
// with affected = "host is down" it lists the queries invalidated by a
// failure; widening the predicate to draining hosts lists the queries a
// graceful decommission should migrate.
func (a *Assignment) AffectedQueries(sys *System, affected func(HostID) bool) []StreamID {
	var out []StreamID
	seen := GetStamps(sys)
	defer seen.Release()
	// Operators run where their output is needed, so beyond the providing
	// host only a flow's sender adds a new host to a query's support.
	untouched := func(f Flow) bool { return !affected(f.From) }
	for _, p := range a.Provides {
		seen.Next()
		if affected(p.Host) || !a.WalkSupport(sys, p.Host, p.Stream, seen, nil, untouched) {
			out = append(out, p.Stream)
		}
	}
	return out
}

// StripFailed deletes every operator placement, flow and provide touching a
// down host. The remainder may reference availabilities the stripped pieces
// used to supply; callers re-plan the affected queries (see AffectedQueries)
// and garbage-collect before validating.
func (a *Assignment) StripFailed(sys *System) {
	a.DeleteOpsFunc(func(pl Placement) bool { return !sys.HostUsable(pl.Host) })
	a.DeleteFlowsFunc(func(f Flow) bool { return !sys.HostUsable(f.From) || !sys.HostUsable(f.To) })
	a.DeleteProvidesFunc(func(p Provide) bool { return !sys.HostUsable(p.Host) })
}

// PruneAcausal removes every operator placement and flow that is no longer
// causally supported: after a failure strip, an operator may have lost an
// input it received from the failed host, and a flow may have lost its real
// source. Whatever derive does not reach from base streams at usable hosts
// is deleted (cascading). The result is a feasible sub-assignment that keeps
// every surviving allocation — including support orphaned by a lost
// provide — so a repair planner can pin survivors instead of rebuilding
// them. Provides whose stream became underivable at their host are removed
// too (callers treat those queries as affected).
func (a *Assignment) PruneAcausal(sys *System) {
	seen := GetStamps(sys)
	defer seen.Release()
	a.derive(sys, seen)
	a.DeleteOpsFunc(func(pl Placement) bool {
		_, missing := underivedInput(sys, seen, pl)
		return missing
	})
	a.DeleteFlowsFunc(func(f Flow) bool { return !derived(sys, seen, f.From, f.Stream) })
	a.DeleteProvidesFunc(func(p Provide) bool { return !derived(sys, seen, p.Host, p.Stream) })
}

// CountMigrations counts the operators that survived a repair but moved: o
// was placed on at least one host that is still usable under the current
// host states, is still placed somewhere in after, and none of its
// surviving former hosts runs it any more. Operators that disappeared
// entirely (their queries were dropped) are not migrations, and neither are
// operators whose only former hosts went down (re-placing those is forced,
// not chosen).
func CountMigrations(sys *System, before, after *Assignment) int {
	migrated := 0
	for rest := before.Ops; len(rest) > 0; {
		was := before.PlacementsOf(rest[0].Op)
		rest = rest[len(was):]
		survived, stayed := false, false
		for _, pl := range was {
			if sys.HostUsable(pl.Host) {
				survived = true
				stayed = stayed || after.HasOp(pl)
			}
		}
		if survived && !stayed && len(after.PlacementsOf(was[0].Op)) > 0 {
			migrated++
		}
	}
	return migrated
}
