package plan

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"sqpr/internal/dsps"
)

// State is the complete durable state of a planner: the allocation, the
// admitted query set, the host availability states, the operator costs
// that drifted from the cost model, and an optional planner-private
// extension. It is what the write-ahead log snapshots and what recovery
// rebuilds — re-importing an exported State must reproduce the planner
// exactly, without re-running any solve.
//
// Marshalling is deterministic (sorted slices throughout), so two planners
// in the same state produce byte-identical JSON; tests and the recovery
// acceptance check compare states that way.
type State struct {
	// Assignment is the full allocation (never nil after Export).
	Assignment *dsps.Assignment `json:"assignment"`
	// Admitted lists the admitted queries in ascending order.
	Admitted []dsps.StreamID `json:"admitted"`
	// Hosts is the availability state per host, indexed by HostID.
	Hosts []dsps.HostState `json:"hosts"`
	// Costs lists, by ascending operator, every operator whose cost differs
	// from the one its system was built with (CostDrifted events).
	Costs []OpCost `json:"costs,omitempty"`
	// Aux carries planner-private state (e.g. the optimistic bound's cost
	// ledger) as deterministic JSON; nil for planners without any.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// StatePorter is implemented by planners whose state can be exported and
// re-imported. All five planners in this repository implement it; the
// durable service requires it.
type StatePorter interface {
	// ExportState returns a deep snapshot of the planner's current state.
	ExportState() State
	// ImportState replaces the planner's state with s, including the host
	// availability states and operator costs of its system. Counters
	// (Stats) are not part of the durable state and are left untouched.
	ImportState(s State) error
}

// DeltaRecorder is implemented by planners that record what each call
// changes: every planner built on Ledger. The durable service journals
// through it, at the cost of what a request touched, where a StatePorter
// alone must be exported and diffed whole after every request.
type DeltaRecorder interface {
	// TakeDelta returns the delta from the state at the previous call to
	// the current one, byte for byte the Diff of the two exported states,
	// and starts the next epoch. The first call starts the recording and
	// returns an empty delta; ImportState starts a fresh epoch at the
	// imported state.
	TakeDelta() Delta
}

// Clone deep-copies the state.
func (s State) Clone() State {
	c := State{
		// slices.Clone keeps an empty list empty, not nil: [] and null
		// are different states to Equal.
		Admitted: slices.Clone(s.Admitted),
		Hosts:    slices.Clone(s.Hosts),
		Costs:    slices.Clone(s.Costs),
	}
	if s.Assignment != nil {
		c.Assignment = s.Assignment.Clone()
	} else {
		c.Assignment = dsps.NewAssignment()
	}
	if s.Aux != nil {
		c.Aux = append(json.RawMessage(nil), s.Aux...)
	}
	return c
}

// Equal reports whether two states are identical, by comparing their
// deterministic serialisations.
func (s State) Equal(o State) bool {
	a, err1 := json.Marshal(s)
	b, err2 := json.Marshal(o)
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}

// ExportedState assembles a State from the fields every planner keeps:
// its assignment, admitted set (ascending, without repeats) and system,
// whose host states and changed operator costs it records.
// Planner-private extras go in Aux afterwards.
func ExportedState(sys *dsps.System, a *dsps.Assignment, admitted []dsps.StreamID) State {
	return State{
		Assignment: a.Snapshot(),
		// Never nil: an empty set is written as [], not null.
		Admitted: append(make([]dsps.StreamID, 0, len(admitted)), admitted...),
		Hosts:    hostStates(sys),
		Costs:    changedCosts(sys),
	}
}

// hostStates lists the state of every host of sys, by HostID.
func hostStates(sys *dsps.System) []dsps.HostState {
	hs := make([]dsps.HostState, sys.NumHosts())
	for h := range sys.Hosts {
		hs[h] = sys.Hosts[h].State
	}
	return hs
}

// changedCosts lists, by ascending operator, every operator of sys whose
// cost differs from the one it was built with.
func changedCosts(sys *dsps.System) []OpCost {
	var cs []OpCost
	for o, built := range sys.BuiltCosts() {
		if c := sys.Operators[o].Cost; c != built {
			cs = append(cs, OpCost{Op: dsps.OperatorID(o), Cost: c})
		}
	}
	return cs
}

// CheckState validates a State against a system before import: the bytes
// of a snapshot or of replayed deltas may name hosts, streams and operators
// the system does not have.
func CheckState(sys *dsps.System, s State) error {
	if len(s.Hosts) != sys.NumHosts() {
		return fmt.Errorf("plan: state has %d host states, system has %d hosts", len(s.Hosts), sys.NumHosts())
	}
	if s.Assignment == nil {
		return fmt.Errorf("plan: state has no assignment")
	}
	if err := s.Assignment.CheckIDs(sys); err != nil {
		return err
	}
	for _, q := range s.Admitted {
		if err := CheckStream(sys, q); err != nil {
			return err
		}
	}
	for i, c := range s.Costs {
		if err := checkCost(sys, c); err != nil {
			return fmt.Errorf("plan: state: %w", err)
		}
		if i > 0 && s.Costs[i-1].Op >= c.Op {
			return fmt.Errorf("plan: state costs out of order at operator %d", c.Op)
		}
	}
	return nil
}

// ApplySystemState transitions every host of sys to its recorded state and
// sets every operator to its recorded cost, or to the one the system was
// built with when s records none.
func ApplySystemState(sys *dsps.System, s State) {
	for h, st := range s.Hosts {
		sys.SetHostState(dsps.HostID(h), st)
	}
	for o, built := range sys.BuiltCosts() {
		sys.SetCost(dsps.OperatorID(o), built)
	}
	for _, c := range s.Costs {
		sys.SetCost(c.Op, c.Cost)
	}
}

// OpCost is the cost of one operator in a State or a Delta.
type OpCost struct {
	Op   dsps.OperatorID `json:"op"`
	Cost float64         `json:"cost"`
}

func compareOpCosts(a, b OpCost) int { return cmp.Compare(a.Op, b.Op) }

// HostChange records one host availability transition in a Delta.
type HostChange struct {
	Host  dsps.HostID    `json:"host"`
	State dsps.HostState `json:"state"`
}

// Delta is the difference between two States, in applyable form. The
// durable service journals one Delta per state-changing call; replaying
// them over the base state reproduces the final state without solving.
// All slices are sorted, so a Delta marshals deterministically.
type Delta struct {
	AdmitAdd   []dsps.StreamID  `json:"admit_add,omitempty"`
	AdmitDel   []dsps.StreamID  `json:"admit_del,omitempty"`
	ProvideSet []dsps.Provide   `json:"provide_set,omitempty"`
	ProvideDel []dsps.StreamID  `json:"provide_del,omitempty"`
	FlowAdd    []dsps.Flow      `json:"flow_add,omitempty"`
	FlowDel    []dsps.Flow      `json:"flow_del,omitempty"`
	OpAdd      []dsps.Placement `json:"op_add,omitempty"`
	OpDel      []dsps.Placement `json:"op_del,omitempty"`
	Hosts      []HostChange     `json:"hosts,omitempty"`
	// CostSet records new operator costs; CostDel the operators back at the
	// cost their system was built with.
	CostSet []OpCost          `json:"cost_set,omitempty"`
	CostDel []dsps.OperatorID `json:"cost_del,omitempty"`
	// Aux replaces the planner-private state wholesale when AuxSet is true
	// (private state has no generic sub-structure to diff).
	Aux    json.RawMessage `json:"aux,omitempty"`
	AuxSet bool            `json:"aux_set,omitempty"`
}

// IsEmpty reports whether the delta changes nothing.
func (d Delta) IsEmpty() bool {
	return len(d.AdmitAdd) == 0 && len(d.AdmitDel) == 0 &&
		len(d.ProvideSet) == 0 && len(d.ProvideDel) == 0 &&
		len(d.FlowAdd) == 0 && len(d.FlowDel) == 0 &&
		len(d.OpAdd) == 0 && len(d.OpDel) == 0 &&
		len(d.Hosts) == 0 && len(d.CostSet) == 0 && len(d.CostDel) == 0 && !d.AuxSet
}

// Diff computes the delta that transforms before into after. Every list
// of both states is sorted, so each part of the delta is one merge.
func Diff(before, after State) Delta {
	var d Delta
	d.AdmitAdd, d.AdmitDel = dsps.DiffSorted(before.Admitted, after.Admitted, cmp.Compare[dsps.StreamID])

	ba, aa := before.Assignment, after.Assignment
	var provideDel []dsps.Provide
	d.ProvideSet, provideDel = dsps.DiffSorted(ba.Provides, aa.Provides, dsps.CompareProvides)
	for _, p := range provideDel {
		d.ProvideDel = append(d.ProvideDel, p.Stream)
	}
	d.FlowAdd, d.FlowDel = dsps.DiffSorted(ba.Flows, aa.Flows, dsps.CompareFlows)
	d.OpAdd, d.OpDel = dsps.DiffSorted(ba.Ops, aa.Ops, dsps.ComparePlacements)

	for h := range after.Hosts {
		if h >= len(before.Hosts) || before.Hosts[h] != after.Hosts[h] {
			d.Hosts = append(d.Hosts, HostChange{Host: dsps.HostID(h), State: after.Hosts[h]})
		}
	}

	var costDel []OpCost
	d.CostSet, costDel = dsps.DiffSorted(before.Costs, after.Costs, compareOpCosts)
	for _, c := range costDel {
		d.CostDel = append(d.CostDel, c.Op)
	}

	if !bytes.Equal(before.Aux, after.Aux) {
		d.Aux = append(json.RawMessage(nil), after.Aux...)
		d.AuxSet = true
	}
	return d
}

// Apply applies the delta to s in place (s must be a mutable copy, e.g.
// from Clone). Sequence matters only between deletion and addition of the
// same key; deletions run first. Each list is merged into its sorted
// counterpart; a delta read off a damaged journal may hold unsorted or
// repeated entries and still leaves s sorted. A host change may name a
// recorded host or extend the list by one (Diff emits new hosts in order);
// any other host is an error, and so is a cost set on a negative operator
// or to a value that is not a finite non-negative number; s is then left
// partly applied.
func (s *State) Apply(d Delta) error {
	if s.Assignment == nil {
		s.Assignment = dsps.NewAssignment()
	}
	s.Admitted = dsps.EditSorted(s.Admitted, d.AdmitDel, d.AdmitAdd, cmp.Compare[dsps.StreamID])
	s.Assignment.EditProvides(d.ProvideDel, d.ProvideSet)
	s.Assignment.EditFlows(d.FlowDel, d.FlowAdd)
	s.Assignment.EditOps(d.OpDel, d.OpAdd)
	for _, hc := range d.Hosts {
		switch {
		case hc.Host < 0 || int(hc.Host) > len(s.Hosts):
			return fmt.Errorf("plan: delta changes host %d of a state with %d hosts", hc.Host, len(s.Hosts))
		case int(hc.Host) == len(s.Hosts):
			s.Hosts = append(s.Hosts, hc.State)
		default:
			s.Hosts[hc.Host] = hc.State
		}
	}
	for _, c := range d.CostSet {
		if err := checkCost(nil, c); err != nil {
			return fmt.Errorf("plan: delta: %w", err)
		}
	}
	costDel := make([]OpCost, len(d.CostDel))
	for i, o := range d.CostDel {
		costDel[i].Op = o
	}
	s.Costs = dsps.EditSorted(s.Costs, costDel, d.CostSet, compareOpCosts)
	if d.AuxSet {
		s.Aux = append(json.RawMessage(nil), d.Aux...)
	}
	return nil
}
