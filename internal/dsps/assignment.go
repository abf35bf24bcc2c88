package dsps

import (
	"cmp"
	"fmt"
	"slices"
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

// Assignment is a complete allocation state of the DSPS: the (d, x, y, z)
// variables of the optimisation model in sparse form. The potentials p are
// not stored; causality is re-derivable (see Validate).
type Assignment struct {
	// Provides maps a requested stream to the host serving it to clients
	// (d_hs = 1). At most one host serves each stream (III.4b).
	Provides map[StreamID]HostID
	// Flows holds every active inter-host transfer (x_hms = 1). A present
	// key is on: entries are written as true or deleted, never set false.
	Flows map[Flow]bool
	// Ops holds every operator placement (z_ho = 1); a present key is on.
	Ops map[Placement]bool
}

// NewAssignment returns an empty allocation (the initial solution of
// Algorithm 1, line 1).
func NewAssignment() *Assignment {
	return &Assignment{
		Provides: make(map[StreamID]HostID),
		Flows:    make(map[Flow]bool),
		Ops:      make(map[Placement]bool),
	}
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	b := NewAssignment()
	for k, v := range a.Provides {
		b.Provides[k] = v
	}
	for k := range a.Flows {
		b.Flows[k] = true
	}
	for k := range a.Ops {
		b.Ops[k] = true
	}
	return b
}

// Available reports whether stream s is available at host h (the derived
// availability variable y_hs): s is a base stream at h, an inflow brings s
// to h, or an operator at h outputs s.
func (a *Assignment) Available(sys *System, h HostID, s StreamID) bool {
	if sys.IsBaseAt(h, s) {
		return true
	}
	for m := 0; m < sys.NumHosts(); m++ {
		if a.Flows[Flow{HostID(m), h, s}] {
			return true
		}
	}
	for _, op := range sys.ProducersOf(s) {
		if a.Ops[Placement{h, op}] {
			return true
		}
	}
	return false
}

// Usage is the resource ledger of an assignment: filled by Reset (or
// ComputeUsage) and then kept current through the Add*/Remove* methods, so
// a planner probing trial placements (with Fits*) never recomputes it.
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
	for pl := range a.Ops {
		u.AddOp(pl)
	}
	for f := range a.Flows {
		u.AddFlow(f)
	}
	for s, h := range a.Provides {
		u.AddProvide(h, s)
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

// RemoveOp refunds one operator placement.
//
//sqpr:hotpath
func (u *Usage) RemoveOp(pl Placement) {
	op := &u.sys.Operators[pl.Op]
	u.CPU[pl.Host] -= op.Cost
	u.Mem[pl.Host] -= op.Mem
	u.CPUSum -= op.Cost
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

// RemoveFlow refunds one inter-host transfer.
//
//sqpr:hotpath
func (u *Usage) RemoveFlow(f Flow) {
	rate := u.sys.Streams[f.Stream].Rate
	u.Link[f.From][f.To] -= rate
	u.Out[f.From] -= rate
	u.In[f.To] -= rate
	u.Network -= rate
}

// AddProvide charges the delivery of s from h to the client proxy (III.6c).
//
//sqpr:hotpath
func (u *Usage) AddProvide(h HostID, s StreamID) { u.Out[h] += u.sys.Streams[s].Rate }

// RemoveProvide refunds one client delivery.
//
//sqpr:hotpath
func (u *Usage) RemoveProvide(h HostID, s StreamID) { u.Out[h] -= u.sys.Streams[s].Rate }

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
// that lies outside sys. Assignments decoded from journals, snapshots and
// files carry whatever ids the bytes held; everything below indexes the
// system's tables with them, so this is the gate that turns a bad id into
// an error instead of a panic.
func (a *Assignment) CheckIDs(sys *System) error {
	host := func(h HostID) bool { return h >= 0 && int(h) < len(sys.Hosts) }
	stream := func(s StreamID) bool { return s >= 0 && int(s) < len(sys.Streams) }
	for s, h := range a.Provides {
		if !stream(s) || !host(h) {
			return fmt.Errorf("dsps: provide of stream %d at host %d is outside the system", s, h)
		}
	}
	for f := range a.Flows {
		if !stream(f.Stream) || !host(f.From) || !host(f.To) {
			return fmt.Errorf("dsps: flow of stream %d from host %d to host %d is outside the system", f.Stream, f.From, f.To)
		}
	}
	for pl := range a.Ops {
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

// derive is the availability fixed point of the causality rule (III.7),
// indexed by HSIndex: a stream is derived at a host if it is a base stream
// there and the host is usable, if a placed operator with all inputs
// already derived outputs it there, or if a flow carries it from a host
// where it is already derived. What is never derived has no real source:
// a missing input, or the self-sustaining feedback loop the potentials p
// exclude.
func (a *Assignment) derive(sys *System) []bool {
	derived := make([]bool, len(sys.Hosts)*len(sys.Streams))
	for s, hosts := range sys.baseHosts {
		for _, h := range hosts {
			if sys.HostUsable(h) {
				derived[sys.HSIndex(h, s)] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for pl := range a.Ops {
			out := sys.HSIndex(pl.Host, sys.Operators[pl.Op].Output)
			if derived[out] {
				continue
			}
			if _, missing := underivedInput(sys, derived, pl); !missing {
				derived[out] = true
				changed = true
			}
		}
		for f := range a.Flows {
			if to := sys.HSIndex(f.To, f.Stream); !derived[to] && derived[sys.HSIndex(f.From, f.Stream)] {
				derived[to] = true
				changed = true
			}
		}
	}
	return derived
}

// underivedInput returns an input of pl that is not derived at its host.
func underivedInput(sys *System, derived []bool, pl Placement) (StreamID, bool) {
	for _, in := range sys.Operators[pl.Op].Inputs {
		if !derived[sys.HSIndex(pl.Host, in)] {
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
	// check covers it and acyclicity (III.7) both. derive seeds usable
	// hosts only; that cannot hide an error, because every piece touching
	// a down host is rejected here by itself.
	derived := a.derive(sys)
	for s, h := range a.Provides {
		if !sys.HostUsable(h) {
			return fmt.Errorf("dsps: stream %d provided by down host %d", s, h)
		}
		// (III.4b) one host per stream is enforced by the map type.
		if !sys.Streams[s].Requested {
			return fmt.Errorf("dsps: host %d provides unrequested stream %d", h, s)
		}
		if !derived[sys.HSIndex(h, s)] {
			return fmt.Errorf("dsps: provided stream %d at host %d is acausal", s, h)
		}
	}
	for pl := range a.Ops {
		if !sys.HostUsable(pl.Host) {
			return fmt.Errorf("dsps: operator %d placed on down host %d", pl.Op, pl.Host)
		}
		if in, missing := underivedInput(sys, derived, pl); missing {
			return fmt.Errorf("dsps: operator %d on host %d has acausal input stream %d", pl.Op, pl.Host, in)
		}
	}
	for f := range a.Flows {
		if !sys.HostUsable(f.From) {
			return fmt.Errorf("dsps: flow of stream %d from down host %d", f.Stream, f.From)
		}
		if !sys.HostUsable(f.To) {
			return fmt.Errorf("dsps: flow of stream %d to down host %d", f.Stream, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("dsps: self-flow of stream %d at host %d", f.Stream, f.From)
		}
		if !derived[sys.HSIndex(f.From, f.Stream)] {
			return fmt.Errorf("dsps: acausal flow of stream %d from host %d (no real source)", f.Stream, f.From)
		}
	}

	// (III.6) resource budgets.
	n := sys.NumHosts()
	u := a.ComputeUsage(sys)
	const tol = ValidateTol
	for h := 0; h < n; h++ {
		if over(u.CPU[h], sys.Hosts[h].CPU, tol) {
			return fmt.Errorf("dsps: host %d CPU %.3f exceeds budget %.3f", h, u.CPU[h], sys.Hosts[h].CPU)
		}
		if sys.Hosts[h].Mem > 0 && over(u.Mem[h], sys.Hosts[h].Mem, tol) {
			return fmt.Errorf("dsps: host %d memory %.3f exceeds budget %.3f", h, u.Mem[h], sys.Hosts[h].Mem)
		}
		if over(u.Out[h], sys.Hosts[h].OutBW, tol) {
			return fmt.Errorf("dsps: host %d out-bandwidth %.3f exceeds budget %.3f", h, u.Out[h], sys.Hosts[h].OutBW)
		}
		if over(u.In[h], sys.Hosts[h].InBW, tol) {
			return fmt.Errorf("dsps: host %d in-bandwidth %.3f exceeds budget %.3f", h, u.In[h], sys.Hosts[h].InBW)
		}
		for m := 0; m < n; m++ {
			if over(u.Link[h][m], sys.LinkCap[h][m], tol) {
				return fmt.Errorf("dsps: link %d->%d usage %.3f exceeds capacity %.3f", h, m, u.Link[h][m], sys.LinkCap[h][m])
			}
		}
	}
	return nil
}

// SatisfiedQueries returns the number of requested streams currently served
// (objective O1), i.e. Σ d_hs.
func (a *Assignment) SatisfiedQueries() int { return len(a.Provides) }

// NewSeen returns the visited array WalkSupport stamps, sized for sys.
func NewSeen(sys *System) []uint32 { return make([]uint32, len(sys.Hosts)*len(sys.Streams)) }

// WalkSupport visits everything availability (h, s) rests on, backwards
// and through every alternative: each operator placed at h that outputs s
// (then its inputs at h) and each flow bringing s into h (then s at the
// sender), stopping at base streams. onOp and onFlow, when non-nil, see
// each such placement and flow once and stop the walk by returning false;
// WalkSupport reports whether it ran to completion.
//
// seen (from NewSeen) is stamped with epoch at every availability reached.
// Walks under one epoch share what they have visited, so many roots cost
// one traversal; a fresh non-zero epoch starts an independent walk on the
// same array without clearing it.
func (a *Assignment) WalkSupport(sys *System, h HostID, s StreamID, seen []uint32, epoch uint32, onOp func(Placement) bool, onFlow func(Flow) bool) bool {
	i := sys.HSIndex(h, s)
	if seen[i] == epoch {
		return true
	}
	seen[i] = epoch
	if sys.IsBaseAt(h, s) {
		return true
	}
	for _, op := range sys.ProducersOf(s) {
		pl := Placement{Host: h, Op: op}
		if !a.Ops[pl] {
			continue
		}
		if onOp != nil && !onOp(pl) {
			return false
		}
		for _, in := range sys.Operators[op].Inputs {
			if !a.WalkSupport(sys, h, in, seen, epoch, onOp, onFlow) {
				return false
			}
		}
	}
	for m := range sys.Hosts {
		f := Flow{From: HostID(m), To: h, Stream: s}
		if !a.Flows[f] {
			continue
		}
		if onFlow != nil && !onFlow(f) {
			return false
		}
		if !a.WalkSupport(sys, f.From, s, seen, epoch, onOp, onFlow) {
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
	seen := NewSeen(sys)
	for s, h := range a.Provides {
		a.WalkSupport(sys, h, s, seen, 1, nil, nil)
	}
	// The walk keeps every producer and every inflow of each availability
	// it reaches, so a piece is needed exactly when its target was reached.
	needed := func(h HostID, s StreamID) bool {
		return seen[sys.HSIndex(h, s)] == 1 && !sys.IsBaseAt(h, s)
	}
	for pl := range a.Ops {
		if !needed(pl.Host, sys.Operators[pl.Op].Output) {
			delete(a.Ops, pl)
		}
	}
	for f := range a.Flows {
		if !needed(f.To, f.Stream) {
			delete(a.Flows, f)
		}
	}
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
	seen := NewSeen(sys)
	// Operators run where their output is needed, so beyond the providing
	// host only a flow's sender adds a new host to a query's support.
	untouched := func(f Flow) bool { return !affected(f.From) }
	epoch := uint32(0)
	for q, h := range a.Provides {
		epoch++
		if affected(h) || !a.WalkSupport(sys, h, q, seen, epoch, nil, untouched) {
			out = append(out, q)
		}
	}
	slices.Sort(out)
	return out
}

// StripFailed deletes every operator placement, flow and provide touching a
// down host. The remainder may reference availabilities the stripped pieces
// used to supply; callers re-plan the affected queries (see AffectedQueries)
// and garbage-collect before validating.
func (a *Assignment) StripFailed(sys *System) {
	for pl := range a.Ops {
		if !sys.HostUsable(pl.Host) {
			delete(a.Ops, pl)
		}
	}
	for f := range a.Flows {
		if !sys.HostUsable(f.From) || !sys.HostUsable(f.To) {
			delete(a.Flows, f)
		}
	}
	for s, h := range a.Provides {
		if !sys.HostUsable(h) {
			delete(a.Provides, s)
		}
	}
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
	derived := a.derive(sys)
	for pl := range a.Ops {
		if _, missing := underivedInput(sys, derived, pl); missing {
			delete(a.Ops, pl)
		}
	}
	for f := range a.Flows {
		if !derived[sys.HSIndex(f.From, f.Stream)] {
			delete(a.Flows, f)
		}
	}
	for s, h := range a.Provides {
		if !derived[sys.HSIndex(h, s)] {
			delete(a.Provides, s)
		}
	}
}

// CountMigrations counts the operators that survived a repair but moved: o
// was placed on at least one host that is still usable under the current
// host states, is still placed somewhere in after, and none of its
// surviving former hosts runs it any more. Operators that disappeared
// entirely (their queries were dropped) are not migrations, and neither are
// operators whose only former hosts went down (re-placing those is forced,
// not chosen).
func CountMigrations(sys *System, before, after *Assignment) int {
	beforeHosts := make(map[OperatorID][]HostID)
	for pl := range before.Ops {
		if sys.HostUsable(pl.Host) {
			beforeHosts[pl.Op] = append(beforeHosts[pl.Op], pl.Host)
		}
	}
	afterAny := make(map[OperatorID]bool)
	for pl := range after.Ops {
		afterAny[pl.Op] = true
	}
	migrated := 0
	for op, hosts := range beforeHosts {
		if !afterAny[op] {
			continue
		}
		stayed := false
		for _, h := range hosts {
			if after.Ops[Placement{Host: h, Op: op}] {
				stayed = true
				break
			}
		}
		if !stayed {
			migrated++
		}
	}
	return migrated
}

// CompareFlows orders flows by (Stream, From, To) and ComparePlacements
// orders placements by (Op, Host): the wire order of assignment files,
// snapshots and journal deltas.
func CompareFlows(a, b Flow) int {
	return cmp.Or(cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// ComparePlacements: see CompareFlows.
func ComparePlacements(a, b Placement) int {
	return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Host, b.Host))
}

// SortedFlows returns the active flows in wire order.
func (a *Assignment) SortedFlows() []Flow {
	out := make([]Flow, 0, len(a.Flows))
	for f := range a.Flows {
		out = append(out, f)
	}
	slices.SortFunc(out, CompareFlows)
	return out
}

// SortedOps returns the active placements in wire order.
func (a *Assignment) SortedOps() []Placement {
	out := make([]Placement, 0, len(a.Ops))
	for p := range a.Ops {
		out = append(out, p)
	}
	slices.SortFunc(out, ComparePlacements)
	return out
}
