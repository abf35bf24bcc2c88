// Package dsps defines the system, query and resource model of §II of the
// SQPR paper: hosts with CPU and bandwidth budgets, base and composite data
// streams, query operators, and assignments of operators/flows to hosts.
// It also provides full resource accounting and a feasibility validator
// implementing constraints (III.4)–(III.7) of the optimisation model,
// including the acyclicity (causality) requirement.
package dsps

import (
	"fmt"
	"math"
	"slices"
)

// HostID identifies a processing host.
type HostID int

// StreamID identifies a base or composite data stream.
type StreamID int

// OperatorID identifies a query operator.
type OperatorID int

// NoOperator marks a stream with no producing operator (a base stream).
const NoOperator OperatorID = -1

// HostState is the availability state of a host under churn.
type HostState int8

// Host states. The zero value is HostUp, so systems built before host
// churn existed behave unchanged.
const (
	// HostUp: the host runs its allocations and accepts new ones.
	HostUp HostState = iota
	// HostDraining: existing allocations keep running, but planners avoid
	// placing new load and repair migrates allocations off best-effort.
	HostDraining
	// HostDown: the host has failed. Every operator, flow endpoint and
	// provide on it is invalid and must be repaired or dropped.
	HostDown
)

// String returns a readable name for the state.
func (st HostState) String() string {
	switch st {
	case HostUp:
		return "up"
	case HostDraining:
		return "draining"
	case HostDown:
		return "down"
	}
	return fmt.Sprintf("HostState(%d)", int8(st))
}

// Host models one processing host of the DSPS.
type Host struct {
	ID HostID
	// CPU is the computational budget ζ_h (e.g. aggregate core capacity).
	CPU float64
	// OutBW is the outgoing host bandwidth β_h of the network interface.
	OutBW float64
	// InBW is the incoming host bandwidth; the paper's constraint (III.6b)
	// uses the same symbol β for both directions.
	InBW float64
	// Mem is the memory budget for operator state (window contents). The
	// paper lists memory as future work ("support for more resources
	// (including memory)"); it is modelled exactly like CPU: per-host,
	// consumed by placed operators. Zero means unconstrained.
	Mem float64
	// State is the host's availability under churn (up by default).
	State HostState
}

// Stream models one data stream.
type Stream struct {
	ID StreamID
	// Rate is the average data rate ̺_s.
	Rate float64
	// Producer is the operator whose output this stream is, or NoOperator
	// for base streams injected externally.
	Producer OperatorID
	// Requested is the indicator δ_s: true when some client asked for s as
	// a query result.
	Requested bool
	// Name is an optional human-readable label.
	Name string
}

// IsBase reports whether the stream is injected externally.
func (s *Stream) IsBase() bool { return s.Producer == NoOperator }

// Operator models one query operator o = (S_o, s_o, γ_o).
type Operator struct {
	ID OperatorID
	// Inputs is the input stream set S_o.
	Inputs []StreamID
	// Output is the single output stream s_o.
	Output StreamID
	// Cost is the computational cost γ_o consumed on the executing host.
	Cost float64
	// Mem is the operator's state footprint (e.g. window contents),
	// charged against Host.Mem when placed. Zero for stateless operators.
	Mem float64
	// Name is an optional human-readable label.
	Name string
}

// System is the static description of a DSPS: hosts, streams, operators,
// link capacities and base-stream placement.
type System struct {
	Hosts     []Host
	Streams   []Stream
	Operators []Operator

	// LinkCap[h][m] is the network capacity κ_hm between hosts h and m.
	LinkCap [][]float64

	// baseAt[h] is the set S⁰_h of base streams available at host h, as a
	// bitset over stream ids.
	baseAt [][]uint64
	// baseHosts[s] lists the hosts providing base stream s.
	baseHosts [][]HostID

	// producersOf[s] lists every operator with output s (alternative ways
	// to produce the same composite stream, e.g. different join orders).
	producersOf [][]OperatorID
	// consumersOf[s] lists every operator with s among its inputs, once
	// each: the forward edges the scoped passes walk.
	consumersOf [][]OperatorID

	// builtCost[o] is operator o's cost as the system was built, recorded
	// by SetCost before it first changes o's cost.
	builtCost []float64

	// The blocks operator inputs and the lists above are cut from.
	streamIDs slab[StreamID]
	opIDs     slab[OperatorID]
	hostIDs   slab[HostID]
}

// slab hands out a System's short id lists from shared blocks, so a system
// built one operator at a time allocates per block, not per list. A list is
// cut with its capacity capped: an append that outgrows it moves it out of
// the block instead of over its neighbour.
type slab[T any] struct{ free []T }

// slabBlock is the length of a slab's blocks.
const slabBlock = 1024

// cut returns a list of length n and capacity c >= n.
func (b *slab[T]) cut(n, c int) []T {
	if len(b.free) < c {
		b.free = make([]T, max(c, slabBlock))
	}
	l := b.free[:n:c]
	b.free = b.free[c:]
	return l
}

// append appends v to list, moving a full list to a cut of twice its
// capacity (two for an empty one: most streams have one or two producers,
// consumers or hosts).
func (b *slab[T]) append(list []T, v T) []T {
	if len(list) == cap(list) {
		list = append(b.cut(0, max(2, 2*cap(list))), list...)
	}
	return append(list, v)
}

// NewSystem creates a system with the given hosts, all pairwise link
// capacities set to linkCap, and no streams or operators yet.
func NewSystem(hosts []Host, linkCap float64) *System {
	s := &System{
		Hosts:  hosts,
		baseAt: make([][]uint64, len(hosts)),
	}
	s.LinkCap = make([][]float64, len(hosts))
	for i := range s.LinkCap {
		s.LinkCap[i] = make([]float64, len(hosts))
		for j := range s.LinkCap[i] {
			if i != j {
				s.LinkCap[i][j] = linkCap
			}
		}
	}
	return s
}

// AddStream registers a stream and returns its ID.
func (sys *System) AddStream(rate float64, producer OperatorID, name string) StreamID {
	id := StreamID(len(sys.Streams))
	sys.Streams = append(sys.Streams, Stream{ID: id, Rate: rate, Producer: producer, Name: name})
	// The per-stream lists grow with the stream table's capacity, so a
	// caller that reserved room for its streams reserved it for these too.
	sys.baseHosts = appendNil(sys.baseHosts, cap(sys.Streams))
	sys.producersOf = appendNil(sys.producersOf, cap(sys.Streams))
	sys.consumersOf = appendNil(sys.consumersOf, cap(sys.Streams))
	return id
}

// appendNil appends an empty list to s, growing a full s to capacity c.
func appendNil[T any](s [][]T, c int) [][]T {
	if len(s) == cap(s) {
		s = slices.Grow(s, c-len(s))
	}
	return append(s, nil)
}

// AddOperator registers an operator producing a fresh output stream with
// the given rate, and returns the operator. Alternative producers for an
// existing stream can be registered with AddProducerFor.
func (sys *System) AddOperator(inputs []StreamID, outRate, cost float64, name string) *Operator {
	out := sys.AddStream(outRate, OperatorID(len(sys.Operators)), name)
	return sys.AddProducerFor(out, inputs, cost, name)
}

// AddProducerFor registers an additional operator that produces an existing
// stream (an alternative plan for the same composite stream).
func (sys *System) AddProducerFor(out StreamID, inputs []StreamID, cost float64, name string) *Operator {
	oid := OperatorID(len(sys.Operators))
	in := sys.streamIDs.cut(len(inputs), len(inputs))
	copy(in, inputs)
	sys.Operators = append(sys.Operators, Operator{ID: oid, Inputs: in, Output: out, Cost: cost, Name: name})
	sys.index(oid)
	return &sys.Operators[oid]
}

// index enters operator oid in the producer list of its output and the
// consumer list of each distinct input. Ids outside the stream table are
// left for Validate to report.
func (sys *System) index(oid OperatorID) {
	op := &sys.Operators[oid]
	if op.Output >= 0 && int(op.Output) < len(sys.producersOf) {
		sys.producersOf[op.Output] = sys.opIDs.append(sys.producersOf[op.Output], oid)
	}
	for _, in := range op.Inputs {
		if in < 0 || int(in) >= len(sys.consumersOf) {
			continue
		}
		if c := sys.consumersOf[in]; len(c) == 0 || c[len(c)-1] != oid {
			sys.consumersOf[in] = sys.opIDs.append(c, oid)
		}
	}
}

// PlaceBase marks base stream s as available at host h (s ∈ S⁰_h).
func (sys *System) PlaceBase(h HostID, s StreamID) {
	if sys.IsBaseAt(h, s) {
		return
	}
	w := int(s) / 64
	for len(sys.baseAt[h]) <= w {
		sys.baseAt[h] = append(sys.baseAt[h], 0)
	}
	sys.baseAt[h][w] |= 1 << (s % 64)
	sys.baseHosts[s] = sys.hostIDs.append(sys.baseHosts[s], h)
}

// IsBaseAt reports whether base stream s is available at host h.
func (sys *System) IsBaseAt(h HostID, s StreamID) bool {
	set := sys.baseAt[h]
	return s >= 0 && int(s)/64 < len(set) && set[s/64]&(1<<(s%64)) != 0
}

// BaseHosts returns the hosts at which base stream s is available.
func (sys *System) BaseHosts(s StreamID) []HostID {
	if s < 0 || int(s) >= len(sys.baseHosts) {
		return nil
	}
	return sys.baseHosts[s]
}

// ProducersOf returns the operators whose output is stream s.
func (sys *System) ProducersOf(s StreamID) []OperatorID {
	if s < 0 || int(s) >= len(sys.producersOf) {
		return nil
	}
	return sys.producersOf[s]
}

// ConsumersOf returns the operators with stream s among their inputs, once
// each.
func (sys *System) ConsumersOf(s StreamID) []OperatorID {
	if s < 0 || int(s) >= len(sys.consumersOf) {
		return nil
	}
	return sys.consumersOf[s]
}

// SetRequested marks stream s as a requested query result (δ_s = 1).
func (sys *System) SetRequested(s StreamID, v bool) { sys.Streams[s].Requested = v }

// SetCost sets operator o's cost γ_o to c, the cost a resource monitor
// measured (§IV-B). It records the costs the system was built with first.
func (sys *System) SetCost(o OperatorID, c float64) {
	for i := len(sys.builtCost); i < len(sys.Operators); i++ {
		sys.builtCost = append(sys.builtCost, sys.Operators[i].Cost)
	}
	sys.Operators[o].Cost = c
}

// BuiltCosts returns the operator costs the system was built with, by
// OperatorID; nil while SetCost has changed none. Do not mutate.
func (sys *System) BuiltCosts() []float64 { return sys.builtCost }

// NumHosts returns |H|.
func (sys *System) NumHosts() int { return len(sys.Hosts) }

// SetHostState transitions host h to the given availability state.
func (sys *System) SetHostState(h HostID, st HostState) { sys.Hosts[h].State = st }

// HostUsable reports whether host h can keep running its existing
// allocations (up or draining). Down hosts are unusable.
func (sys *System) HostUsable(h HostID) bool { return sys.Hosts[h].State != HostDown }

// HostPlaceable reports whether host h may receive new load (up only;
// draining hosts keep what they have but are avoided for fresh placements).
func (sys *System) HostPlaceable(h HostID) bool { return sys.Hosts[h].State == HostUp }

// UsableCPU returns Σ ζ_h over usable (non-down) hosts — the aggregate CPU
// the system can actually deliver under the current host states.
func (sys *System) UsableCPU() float64 {
	var sum float64
	for i := range sys.Hosts {
		if sys.Hosts[i].State != HostDown {
			sum += sys.Hosts[i].CPU
		}
	}
	return sum
}

// DownHosts returns the hosts currently down, in ascending order.
func (sys *System) DownHosts() []HostID {
	var out []HostID
	for i := range sys.Hosts {
		if sys.Hosts[i].State == HostDown {
			out = append(out, HostID(i))
		}
	}
	return out
}

// TotalCPU returns Σ_h ζ_h.
func (sys *System) TotalCPU() float64 {
	var sum float64
	for _, h := range sys.Hosts {
		sum += h.CPU
	}
	return sum
}

// TotalLinkCap returns Σ_{h,m} κ_hm.
func (sys *System) TotalLinkCap() float64 {
	var sum float64
	for _, row := range sys.LinkCap {
		for _, c := range row {
			sum += c
		}
	}
	return sum
}

// Validate checks referential integrity of the system description.
func (sys *System) Validate() error {
	// IDs are canonical slice indices: ProducersOf results and assignment
	// keys index these tables directly, so a decoded system with shifted
	// IDs would panic later instead of erroring here.
	for i := range sys.Hosts {
		if sys.Hosts[i].ID != HostID(i) {
			return fmt.Errorf("dsps: host at index %d has ID %d", i, sys.Hosts[i].ID)
		}
	}
	for i := range sys.Streams {
		if sys.Streams[i].ID != StreamID(i) {
			return fmt.Errorf("dsps: stream at index %d has ID %d", i, sys.Streams[i].ID)
		}
	}
	for i := range sys.Operators {
		if sys.Operators[i].ID != OperatorID(i) {
			return fmt.Errorf("dsps: operator at index %d has ID %d", i, sys.Operators[i].ID)
		}
	}
	for _, o := range sys.Operators {
		if int(o.Output) < 0 || int(o.Output) >= len(sys.Streams) {
			return fmt.Errorf("dsps: operator %d output stream %d out of range", o.ID, o.Output)
		}
		if len(o.Inputs) == 0 {
			return fmt.Errorf("dsps: operator %d has no inputs", o.ID)
		}
		for _, in := range o.Inputs {
			if int(in) < 0 || int(in) >= len(sys.Streams) {
				return fmt.Errorf("dsps: operator %d input stream %d out of range", o.ID, in)
			}
			if in == o.Output {
				return fmt.Errorf("dsps: operator %d consumes its own output", o.ID)
			}
		}
		if o.Cost < 0 {
			return fmt.Errorf("dsps: operator %d has negative cost", o.ID)
		}
	}
	for _, st := range sys.Streams {
		if st.Rate < 0 || math.IsNaN(st.Rate) {
			return fmt.Errorf("dsps: stream %d has invalid rate %v", st.ID, st.Rate)
		}
		if st.Producer != NoOperator {
			if int(st.Producer) < 0 || int(st.Producer) >= len(sys.Operators) {
				return fmt.Errorf("dsps: stream %d producer %d out of range", st.ID, st.Producer)
			}
			if sys.Operators[st.Producer].Output != st.ID {
				return fmt.Errorf("dsps: stream %d producer %d outputs stream %d", st.ID, st.Producer, sys.Operators[st.Producer].Output)
			}
		}
	}
	for _, h := range sys.Hosts {
		switch h.State {
		case HostUp, HostDraining, HostDown:
		default:
			return fmt.Errorf("dsps: host %d has unknown state %d", h.ID, int8(h.State))
		}
	}
	if len(sys.LinkCap) != len(sys.Hosts) {
		return fmt.Errorf("dsps: link capacity matrix size %d != host count %d", len(sys.LinkCap), len(sys.Hosts))
	}
	for i, row := range sys.LinkCap {
		if len(row) != len(sys.Hosts) {
			return fmt.Errorf("dsps: link capacity row %d size %d != host count %d", i, len(row), len(sys.Hosts))
		}
	}
	return nil
}
