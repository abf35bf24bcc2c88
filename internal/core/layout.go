package core

import (
	"fmt"
	"slices"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
)

// layout is the addressing of one reduced model. Stream, operator and host
// ids are dense, and build creates the variables in one fixed nested order,
// so a variable's index is arithmetic on the slots of its ids:
//
//	per free stream (slot order):
//	    per candidate host:  y, [d], p       stride 2, or 3 with d
//	    per ordered pair:    x               H·(H−1), sender-major
//	per free operator:       z per host      operator-major
//	L                                        last
//
// The slot tables map an id to its position in freeStreams, freeOps and
// hosts; −1 means the id is not in this model, which is also how the rest
// of the builder asks "is this stream free?". Every accessor returns
// ok=false for a variable the model does not have (and which is
// semantically zero).
type layout struct {
	sSlot, oSlot, hSlot []int32

	freeStreams []dsps.StreamID   // sorted
	freeOps     []dsps.OperatorID // sorted
	hosts       []dsps.HostID     // candidate hosts, sorted

	sBase  []milp.Var // by stream slot: first variable of the stream's block
	stride []int      // by stream slot: 3 when the block has d variables, else 2
	zBase  milp.Var
	lVar   milp.Var // O4 linearisation: max per-host CPU
}

// reset empties the layout, keeping its storage, and sizes the slot tables
// to sys. Only the previous model's ids are un-marked, so a reset costs the
// size of a reduced model, not of the system.
func (l *layout) reset(sys *dsps.System) {
	l.truncFree(0)
	for _, o := range l.freeOps {
		l.oSlot[o] = -1
	}
	for _, h := range l.hosts {
		l.hSlot[h] = -1
	}
	l.freeOps, l.hosts = l.freeOps[:0], l.hosts[:0]
	l.sSlot = growSlots(l.sSlot, len(sys.Streams))
	l.oSlot = growSlots(l.oSlot, len(sys.Operators))
	l.hSlot = growSlots(l.hSlot, sys.NumHosts())
}

func growSlots(t []int32, n int) []int32 {
	for len(t) < n {
		t = append(t, -1)
	}
	return t
}

// addFree puts streams into the free set. Until seal assigns the slots a
// member is only marked, so the set can still be rolled back by truncFree.
func (l *layout) addFree(streams []dsps.StreamID) {
	for _, s := range streams {
		if l.sSlot[s] < 0 {
			l.sSlot[s] = 0
			l.freeStreams = append(l.freeStreams, s)
		}
	}
}

// truncFree drops every stream added since the free set had mark members.
func (l *layout) truncFree(mark int) {
	for _, s := range l.freeStreams[mark:] {
		l.sSlot[s] = -1
	}
	l.freeStreams = l.freeStreams[:mark]
}

// seal fixes the free set: it orders the streams, derives the free
// operators — every producer of a free stream; by construction of the
// closure their inputs are free too — and assigns both their slots.
func (l *layout) seal(sys *dsps.System) {
	slices.Sort(l.freeStreams)
	for i, s := range l.freeStreams {
		l.sSlot[s] = int32(i)
		l.freeOps = append(l.freeOps, sys.ProducersOf(s)...)
	}
	slices.Sort(l.freeOps)
	for i, o := range l.freeOps {
		l.oSlot[o] = int32(i)
	}
}

// place lays the variable blocks out once the candidate hosts are chosen;
// provide reports which free streams get d variables.
func (l *layout) place(provide func(dsps.StreamID) bool) {
	nh := len(l.hosts)
	l.sBase, l.stride = l.sBase[:0], l.stride[:0]
	next := 0
	for _, s := range l.freeStreams {
		stride := 2
		if provide(s) {
			stride = 3
		}
		l.sBase = append(l.sBase, milp.Var(next))
		l.stride = append(l.stride, stride)
		next += nh*stride + nh*(nh-1)
	}
	l.zBase = milp.Var(next)
	l.lVar = l.zBase + milp.Var(len(l.freeOps)*nh)
}

// numVars is the size of the model laid out: L is its last variable.
func (l *layout) numVars() int { return int(l.lVar) + 1 }

//sqpr:hotpath
func (l *layout) hasStream(s dsps.StreamID) bool { return l.sSlot[s] >= 0 }

//sqpr:hotpath
func (l *layout) hasOp(o dsps.OperatorID) bool { return l.oSlot[o] >= 0 }

//sqpr:hotpath
func (l *layout) hasHost(h dsps.HostID) bool { return l.hSlot[h] >= 0 }

// at addresses the per-host variables of stream s at host h: y sits at the
// returned index, p at the end of the stride, d (stride 3 only) between.
//
//sqpr:hotpath
func (l *layout) at(h dsps.HostID, s dsps.StreamID) (v milp.Var, stride int, ok bool) {
	si, hi := l.sSlot[s], l.hSlot[h]
	if si < 0 || hi < 0 {
		return 0, 0, false
	}
	stride = l.stride[si]
	return l.sBase[si] + milp.Var(int(hi)*stride), stride, true
}

// y is the availability variable of stream s at host h.
//
//sqpr:hotpath
func (l *layout) y(h dsps.HostID, s dsps.StreamID) (milp.Var, bool) {
	v, _, ok := l.at(h, s)
	return v, ok
}

// d is the provide variable: host h delivers requested stream s.
//
//sqpr:hotpath
func (l *layout) d(h dsps.HostID, s dsps.StreamID) (milp.Var, bool) {
	if v, stride, ok := l.at(h, s); ok && stride == 3 {
		return v + 1, true
	}
	return 0, false
}

// p is the acyclicity potential of stream s at host h.
//
//sqpr:hotpath
func (l *layout) p(h dsps.HostID, s dsps.StreamID) (milp.Var, bool) {
	v, stride, ok := l.at(h, s)
	return v + milp.Var(stride-1), ok
}

// x is the flow variable of stream s from one candidate host to another.
//
//sqpr:hotpath
func (l *layout) x(from, to dsps.HostID, s dsps.StreamID) (milp.Var, bool) {
	si, fi, ti := l.sSlot[s], int(l.hSlot[from]), int(l.hSlot[to])
	if si < 0 || fi < 0 || ti < 0 || fi == ti {
		return 0, false
	}
	if ti > fi {
		ti-- // a sender's row skips the sender itself
	}
	nh := len(l.hosts)
	return l.sBase[si] + milp.Var(nh*l.stride[si]+fi*(nh-1)+ti), true
}

// z is the placement variable of operator o at host h.
//
//sqpr:hotpath
func (l *layout) z(h dsps.HostID, o dsps.OperatorID) (milp.Var, bool) {
	oi, hi := l.oSlot[o], l.hSlot[h]
	if oi < 0 || hi < 0 {
		return 0, false
	}
	return l.zBase + milp.Var(int(oi)*len(l.hosts)+int(hi)), true
}

// eachFlowVar visits the x variables in block order.
func (l *layout) eachFlowVar(visit func(from, to dsps.HostID, s dsps.StreamID, xv milp.Var)) {
	for _, s := range l.freeStreams {
		for _, h := range l.hosts {
			for _, m := range l.hosts {
				if xv, ok := l.x(h, m, s); ok {
					visit(h, m, s, xv)
				}
			}
		}
	}
}

// expect pins build's creation order to the layout: the variable the model
// hands out next must be the one the accessor just computed.
func (b *builder) expect(v milp.Var, ok bool) {
	if !ok || int(v) != b.model.NumVars() {
		panic(fmt.Sprintf("core: layout out of step with build: next variable is %d, layout says %d (in model: %v)", b.model.NumVars(), v, ok))
	}
}
