package dsps

import "sqpr/internal/invariant"

// Trial is an allocation under probe. A greedy planner adds pieces to
// Assignment through it; each new piece is charged to Usage and journaled,
// and Rollback undoes every piece added since a Mark. So a planner probes
// all its candidates on one copy of the allocation instead of a clone each
// — or on the allocation itself, when every outcome that does not keep the
// probe rolls back to mark 0. A planner that prunes what it probed deletes
// through the trial too (DeleteFlowsOfFunc, DeletePlacementsOfFunc), and
// Rollback puts those pieces back.
//
// Each journaled piece keeps the ledger cells it changed as they were
// before it, and Rollback writes them back, so Usage after a rollback is
// the Usage at the mark bit for bit.
type Trial struct {
	Assignment *Assignment
	Usage      Usage

	journal []trialEntry
	ext     Extension // Extension's result, pooled
}

// trialEntry is one journaled piece: a flow, a placement or a provide
// added, or a flow or placement deleted, with the ledger cells it changed
// as they were before it — a flow's Link cell, Out, In and Network; a
// placement's CPU, Mem and CPUSum; a provide's Out.
type trialEntry struct {
	kind    uint8
	flow    Flow
	op      Placement
	provide Provide
	was     [4]float64
}

const (
	pieceFlow uint8 = iota
	pieceOp
	pieceProvide
	deletedFlow
	deletedOp
)

// Begin starts probing on a with an empty journal. Usage is the caller's
// to sum (Usage.Reset), over a or an equal allocation.
func (t *Trial) Begin(a *Assignment) {
	t.Assignment = a
	t.journal = t.journal[:0]
}

// Mark returns the point Rollback returns to.
//
//sqpr:hotpath
func (t *Trial) Mark() int { return len(t.journal) }

// AddFlow turns transfer f on, charges it and journals it. A flow already
// on is left as it is, and so is a placement AddOp finds on or a stream
// AddProvide finds provided.
//
//sqpr:hotpath
func (t *Trial) AddFlow(f Flow) {
	if t.Assignment.AddFlow(f) {
		u := &t.Usage
		was := [4]float64{u.Link[f.From][f.To], u.Out[f.From], u.In[f.To], u.Network}
		t.journal = append(t.journal, trialEntry{kind: pieceFlow, flow: f, was: was}) //sqpr:amortized pooled
		u.AddFlow(f)
	}
}

//sqpr:hotpath
func (t *Trial) AddOp(pl Placement) {
	if t.Assignment.AddOp(pl) {
		u := &t.Usage
		was := [4]float64{u.CPU[pl.Host], u.Mem[pl.Host], u.CPUSum}
		t.journal = append(t.journal, trialEntry{kind: pieceOp, op: pl, was: was}) //sqpr:amortized pooled
		u.AddOp(pl)
	}
}

//sqpr:hotpath
func (t *Trial) AddProvide(p Provide) {
	if _, ok := t.Assignment.Provider(p.Stream); !ok {
		t.Assignment.SetProvide(p.Stream, p.Host)
		u := &t.Usage
		was := [4]float64{u.Out[p.Host]}
		t.journal = append(t.journal, trialEntry{kind: pieceProvide, provide: p, was: was}) //sqpr:amortized pooled
		u.AddProvide(p.Host, p.Stream)
	}
}

// DeleteFlowsOfFunc turns off every transfer of stream s for which del
// reports true, calling it once per transfer, and uncharges and journals
// each one it turns off. The Usage cells it lowers are exact again only
// after a Rollback past it.
func (t *Trial) DeleteFlowsOfFunc(s StreamID, del func(Flow) bool) {
	u := &t.Usage
	for i := 0; i < len(t.Assignment.FlowsOf(s)); {
		f := t.Assignment.FlowsOf(s)[i]
		if !del(f) {
			i++
			continue
		}
		was := [4]float64{u.Link[f.From][f.To], u.Out[f.From], u.In[f.To], u.Network}
		t.journal = append(t.journal, trialEntry{kind: deletedFlow, flow: f, was: was})
		t.Assignment.DeleteFlow(f)
		rate := u.sys.Streams[f.Stream].Rate
		u.Link[f.From][f.To] -= rate
		u.Out[f.From] -= rate
		u.In[f.To] -= rate
		u.Network -= rate
	}
}

// DeletePlacementsOfFunc: see DeleteFlowsOfFunc, for the placements of op.
func (t *Trial) DeletePlacementsOfFunc(op OperatorID, del func(Placement) bool) {
	u := &t.Usage
	o := &u.sys.Operators[op]
	for i := 0; i < len(t.Assignment.PlacementsOf(op)); {
		pl := t.Assignment.PlacementsOf(op)[i]
		if !del(pl) {
			i++
			continue
		}
		was := [4]float64{u.CPU[pl.Host], u.Mem[pl.Host], u.CPUSum}
		t.journal = append(t.journal, trialEntry{kind: deletedOp, op: pl, was: was})
		t.Assignment.DeleteOp(pl)
		u.CPU[pl.Host] -= o.Cost
		u.Mem[pl.Host] -= o.Mem
		u.CPUSum -= o.Cost
	}
}

// Rollback undoes the pieces added or deleted since mark, newest first,
// and writes back the ledger cells each one changed.
//
//sqpr:hotpath
func (t *Trial) Rollback(mark int) {
	u := &t.Usage
	for i := len(t.journal) - 1; i >= mark; i-- {
		switch e := &t.journal[i]; e.kind {
		case pieceFlow:
			f := e.flow
			t.Assignment.DeleteFlow(f)
			u.Link[f.From][f.To], u.Out[f.From], u.In[f.To], u.Network = e.was[0], e.was[1], e.was[2], e.was[3]
		case pieceOp:
			pl := e.op
			t.Assignment.DeleteOp(pl)
			u.CPU[pl.Host], u.Mem[pl.Host], u.CPUSum = e.was[0], e.was[1], e.was[2]
		case pieceProvide:
			t.Assignment.DeleteProvide(e.provide.Stream)
			u.Out[e.provide.Host] = e.was[0]
		case deletedFlow:
			f := e.flow
			t.Assignment.AddFlow(f)
			u.Link[f.From][f.To], u.Out[f.From], u.In[f.To], u.Network = e.was[0], e.was[1], e.was[2], e.was[3]
		case deletedOp:
			pl := e.op
			t.Assignment.AddOp(pl)
			u.CPU[pl.Host], u.Mem[pl.Host], u.CPUSum = e.was[0], e.was[1], e.was[2]
		}
	}
	t.journal = t.journal[:mark]
}

// Extension lists the pieces added since mark, for ValidateExtension; the
// trial must have deleted nothing since. The result is reused by the next
// call.
//
//sqpr:hotpath
func (t *Trial) Extension(mark int) *Extension {
	t.ext = Extension{Ops: t.ext.Ops[:0], Flows: t.ext.Flows[:0], Provides: t.ext.Provides[:0]}
	for _, e := range t.journal[mark:] {
		switch e.kind {
		case pieceFlow:
			t.ext.Flows = append(t.ext.Flows, e.flow) //sqpr:amortized pooled
		case pieceOp:
			t.ext.Ops = append(t.ext.Ops, e.op) //sqpr:amortized pooled
		case pieceProvide:
			t.ext.Provides = append(t.ext.Provides, e.provide) //sqpr:amortized pooled
		default:
			if invariant.Enabled {
				invariant.Failf("dsps: an extension asked of a trial that deleted %+v%+v since its mark", e.flow, e.op)
			}
		}
	}
	return &t.ext
}
