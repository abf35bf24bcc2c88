package dsps

import (
	"cmp"
	"slices"
)

// Touches is the change record of an allocation between two journal
// points (an epoch): the first touch of each key in the epoch, with the
// key's value as it was then. A stream's key holds its provide and its run
// of flows, an operator's its run of placements. Every Assignment mutator
// records through the Touches its allocation carries, and Clone carries
// the record by pointer, so a clone probed and committed in place of the
// allocation and an in-place edit of the allocation both log into it.
//
// The record is exact: every allocation cloned within an epoch agrees with
// the epoch's base on each key not logged yet (a key's value changes only
// through a mutator, and the mutator logs the key first), so the first
// toucher always logs the base value. A clone that is discarded only adds
// keys whose value at Take equals the logged one, and those diff to
// nothing. An allocation of an earlier epoch records nothing; Succeed
// logs every key when one is installed in the record's place.
type Touches struct {
	epoch    uint64
	streamAt []uint64 // by StreamID: the epoch that last logged the stream
	opAt     []uint64 // by OperatorID: likewise
	streams  []streamBefore
	ops      []opBefore
	flows    []Flow      // the logged runs of flows, back to back
	places   []Placement // the logged runs of placements
	marks    []int       // scratch of the Delete*Func mutators
}

// streamBefore is one logged stream: its provide and the bounds of its run
// of flows in Touches.flows.
type streamBefore struct {
	s        StreamID
	host     HostID
	provided bool
	lo, hi   int
}

// opBefore is one logged operator: the bounds of its run in Touches.places.
type opBefore struct {
	op     OperatorID
	lo, hi int
}

// Changes lists what an allocation changed on the keys of one epoch, in
// wire order: the parts of a journal delta.
type Changes struct {
	ProvideSet []Provide
	ProvideDel []StreamID
	FlowAdd    []Flow
	FlowDel    []Flow
	OpAdd      []Placement
	OpDel      []Placement
}

// Track attaches a to t and opens a fresh epoch of t with a as its base.
func (a *Assignment) Track(t *Touches) {
	t.epoch++
	t.streams, t.ops = t.streams[:0], t.ops[:0]
	t.flows, t.places = t.flows[:0], t.places[:0]
	a.touches, a.epoch = t, t.epoch
}

// Snapshot deep-copies the assignment for a reader outside its planner or
// a checked-build comparison: unlike Clone, the copy records nothing, so
// edits to it neither race with the planner nor log keys the planner's own
// edits must log.
func (a *Assignment) Snapshot() *Assignment {
	c := a.Clone()
	c.touches, c.epoch = nil, 0
	return c
}

// Succeed installs a as the tracked allocation in prev's place. When a is
// not of prev's epoch (it was built apart from prev, or in an earlier
// epoch), what it changed went unrecorded, so every key of prev and of a
// is logged through prev first: prev agrees with the base on each key not
// logged yet.
func (a *Assignment) Succeed(prev *Assignment) {
	t := prev.touches
	if !prev.recording() || a.touches == t && a.recording() {
		return
	}
	for _, x := range [2]*Assignment{prev, a} {
		for _, p := range x.Provides {
			prev.touchStream(p.Stream)
		}
		for _, f := range x.Flows {
			prev.touchStream(f.Stream)
		}
		for _, pl := range x.Ops {
			prev.touchOp(pl.Op)
		}
	}
	a.touches, a.epoch = t, t.epoch
}

// recording reports whether a's mutators log into a change record.
func (a *Assignment) recording() bool { return a.touches != nil && a.epoch == a.touches.epoch }

// touchStream logs stream s's provide and run of flows unless the epoch
// has already, or a records nothing. Mutators call it before they change
// the stream's key.
//
//sqpr:hotpath
func (a *Assignment) touchStream(s StreamID) {
	if a.touches != nil {
		a.touches.logStream(a, s)
	}
}

// touchOp: see touchStream.
//
//sqpr:hotpath
func (a *Assignment) touchOp(op OperatorID) {
	if a.touches != nil {
		a.touches.logOp(a, op)
	}
}

//sqpr:hotpath
func (t *Touches) logStream(a *Assignment, s StreamID) {
	if a.epoch != t.epoch || int(s) < len(t.streamAt) && t.streamAt[s] == t.epoch {
		return
	}
	t.streamAt = growStamps(t.streamAt, int(s))
	t.streamAt[s] = t.epoch
	h, ok := a.Provider(s)
	lo := len(t.flows)
	t.flows = append(t.flows, a.FlowsOf(s)...)                                                         //sqpr:amortized pooled across epochs
	t.streams = append(t.streams, streamBefore{s: s, host: h, provided: ok, lo: lo, hi: len(t.flows)}) //sqpr:amortized
}

//sqpr:hotpath
func (t *Touches) logOp(a *Assignment, op OperatorID) {
	if a.epoch != t.epoch || int(op) < len(t.opAt) && t.opAt[op] == t.epoch {
		return
	}
	t.opAt = growStamps(t.opAt, int(op))
	t.opAt[op] = t.epoch
	lo := len(t.places)
	t.places = append(t.places, a.PlacementsOf(op)...)                 //sqpr:amortized pooled across epochs
	t.ops = append(t.ops, opBefore{op: op, lo: lo, hi: len(t.places)}) //sqpr:amortized
}

// growStamps returns at with index i in range.
//
//sqpr:hotpath
func growStamps(at []uint64, i int) []uint64 {
	for len(at) <= i {
		at = append(at, 0) //sqpr:amortized grows to the largest id once
	}
	return at
}

// Take returns what a, the allocation tracked in t's place, changed on the
// epoch's logged keys, and opens the next epoch with a as its base. Keys
// come out in key order and each run is diffed in wire order, so every
// list is sorted. The lists are fresh; t's buffers are kept for the next
// epoch.
func (t *Touches) Take(a *Assignment) Changes {
	var c Changes
	slices.SortFunc(t.streams, func(x, y streamBefore) int { return cmp.Compare(x.s, y.s) })
	for _, b := range t.streams {
		h, ok := a.Provider(b.s)
		switch {
		case ok && (!b.provided || h != b.host):
			c.ProvideSet = append(c.ProvideSet, Provide{Stream: b.s, Host: h})
		case !ok && b.provided:
			c.ProvideDel = append(c.ProvideDel, b.s)
		}
		c.FlowAdd, c.FlowDel = appendDiff(c.FlowAdd, c.FlowDel, t.flows[b.lo:b.hi], a.FlowsOf(b.s), CompareFlows)
	}
	slices.SortFunc(t.ops, func(x, y opBefore) int { return cmp.Compare(x.op, y.op) })
	for _, b := range t.ops {
		c.OpAdd, c.OpDel = appendDiff(c.OpAdd, c.OpDel, t.places[b.lo:b.hi], a.PlacementsOf(b.op), ComparePlacements)
	}
	a.Track(t)
	return c
}
