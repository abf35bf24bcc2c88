package dsps

// Trial is an allocation under probe. A greedy planner adds pieces to
// Assignment through it; each new piece is charged to Usage and journaled,
// and Rollback undoes every piece added since a Mark. So a planner probes
// all its candidates on one copy of the allocation instead of a clone each.
//
// Rollback refunds usage piece by piece, which can leave other low bits
// than a fresh Usage.Reset over the restored slices; a planner whose scores
// must equal a from-scratch sum resets Usage before each candidate.
type Trial struct {
	Assignment *Assignment
	Usage      Usage

	journal []trialEntry
	ext     Extension // Extension's result, pooled
}

// trialEntry is one journaled piece: a flow, a placement or a provide.
type trialEntry struct {
	kind    uint8
	flow    Flow
	op      Placement
	provide Provide
}

const (
	pieceFlow uint8 = iota
	pieceOp
	pieceProvide
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
		t.Usage.AddFlow(f)
		t.journal = append(t.journal, trialEntry{kind: pieceFlow, flow: f}) //sqpr:amortized pooled
	}
}

//sqpr:hotpath
func (t *Trial) AddOp(pl Placement) {
	if t.Assignment.AddOp(pl) {
		t.Usage.AddOp(pl)
		t.journal = append(t.journal, trialEntry{kind: pieceOp, op: pl}) //sqpr:amortized pooled
	}
}

//sqpr:hotpath
func (t *Trial) AddProvide(p Provide) {
	if _, ok := t.Assignment.Provider(p.Stream); !ok {
		t.Assignment.SetProvide(p.Stream, p.Host)
		t.Usage.AddProvide(p.Host, p.Stream)
		t.journal = append(t.journal, trialEntry{kind: pieceProvide, provide: p}) //sqpr:amortized pooled
	}
}

// Rollback undoes the pieces added since mark, newest first.
//
//sqpr:hotpath
func (t *Trial) Rollback(mark int) {
	for i := len(t.journal) - 1; i >= mark; i-- {
		switch e := &t.journal[i]; e.kind {
		case pieceFlow:
			t.Assignment.DeleteFlow(e.flow)
			t.Usage.RemoveFlow(e.flow)
		case pieceOp:
			t.Assignment.DeleteOp(e.op)
			t.Usage.RemoveOp(e.op)
		case pieceProvide:
			t.Assignment.DeleteProvide(e.provide.Stream)
			t.Usage.RemoveProvide(e.provide.Host, e.provide.Stream)
		}
	}
	t.journal = t.journal[:mark]
}

// Extension lists the pieces added since mark, for ValidateExtension. The
// result is reused by the next call.
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
		}
	}
	return &t.ext
}
