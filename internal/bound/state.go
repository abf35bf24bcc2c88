package bound

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// aux is the planner-private durable state of the bound calculator: the
// CPU ledger that the generic State fields cannot express (the synthetic
// aggregate host has no physical assignment).
type aux struct {
	Budget   float64           `json:"budget"`
	Capacity float64           `json:"capacity"`
	Placed   []dsps.OperatorID `json:"placed"`
	Charged  []charge          `json:"charged"`
}

type charge struct {
	Stream dsps.StreamID `json:"stream"`
	Cost   float64       `json:"cost"`
}

// ExportState snapshots the planner's durable state (see plan.StatePorter).
// The CPU ledger travels in Aux, sorted for deterministic serialisation.
func (p *Planner) ExportState() plan.State {
	s := p.Ledger.ExportState()
	s.Aux = p.auxJSON()
	return s
}

// TakeDelta is the ledger's delta (see plan.DeltaRecorder) with the CPU
// ledger in Aux whenever it changed since the previous call: the ledger's
// own method would journal admissions without their charges.
func (p *Planner) TakeDelta() plan.Delta {
	d := p.Ledger.TakeDelta()
	raw := p.auxJSON()
	if p.lastAux != nil && !bytes.Equal(raw, p.lastAux) {
		d.Aux, d.AuxSet = raw, true
	}
	p.lastAux = raw
	return d
}

// auxJSON encodes the CPU ledger, sorted for deterministic serialisation.
func (p *Planner) auxJSON() json.RawMessage {
	a := aux{Budget: p.budget, Capacity: p.capacity}
	for op := range p.placed {
		a.Placed = append(a.Placed, op)
	}
	sort.Slice(a.Placed, func(i, j int) bool { return a.Placed[i] < a.Placed[j] })
	for q, c := range p.charged {
		a.Charged = append(a.Charged, charge{Stream: q, Cost: c})
	}
	sort.Slice(a.Charged, func(i, j int) bool { return a.Charged[i].Stream < a.Charged[j].Stream })
	raw, err := json.Marshal(a)
	if err != nil {
		// aux contains only plain numeric fields; Marshal cannot fail.
		panic(fmt.Sprintf("bound: marshalling aux state: %v", err))
	}
	return raw
}

// ImportState replaces the planner state with s (see plan.StatePorter).
func (p *Planner) ImportState(s plan.State) error {
	var a aux
	if len(s.Aux) == 0 {
		return fmt.Errorf("bound: imported state is missing the aux CPU ledger")
	}
	if err := json.Unmarshal(s.Aux, &a); err != nil {
		return fmt.Errorf("bound: decoding aux state: %w", err)
	}
	if err := p.Ledger.ImportState(s); err != nil {
		return err
	}
	p.budget = a.Budget
	p.capacity = a.Capacity
	p.placed = make(map[dsps.OperatorID]bool, len(a.Placed))
	for _, op := range a.Placed {
		p.placed[op] = true
	}
	p.charged = make(map[dsps.StreamID]float64, len(a.Charged))
	for _, c := range a.Charged {
		p.charged[c.Stream] = c.Cost
	}
	if p.lastAux != nil {
		// The ledger opened a fresh epoch at the imported state.
		p.lastAux = p.auxJSON()
	}
	return nil
}
