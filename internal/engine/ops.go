package engine

import (
	"sync"

	"sqpr/internal/dsps"
)

// opInstance is one running operator. Binary operators are executed as
// sliding-window symmetric hash joins on the tuple key; unary operators
// pass their input through. The instance is only touched by its host's
// goroutine, but a mutex guards against future multi-worker hosts.
type opInstance struct {
	op *dsps.Operator
	e  *Engine

	mu      sync.Mutex
	windows map[dsps.StreamID]*window
	outSeq  int64
}

func newOpInstance(e *Engine, op *dsps.Operator) *opInstance {
	inst := &opInstance{op: op, e: e, windows: make(map[dsps.StreamID]*window)}
	for _, in := range op.Inputs {
		inst.windows[in] = newWindow(windowSize)
	}
	return inst
}

// consume processes one input tuple and returns any produced output tuples.
func (o *opInstance) consume(t Tuple) []Tuple {
	o.mu.Lock()
	defer o.mu.Unlock()
	w, ok := o.windows[t.Stream]
	if !ok {
		return nil
	}
	if len(o.op.Inputs) == 1 {
		// Unary operator: identity pass-through onto the output stream,
		// with no window to keep. The model treats selection as rate
		// reduction, which the monitor accounts via stream rates.
		o.outSeq++
		t.Stream = o.op.Output
		t.SeqNo = o.outSeq
		return []Tuple{t}
	}
	w.add(t)
	// Symmetric hash join: match the new tuple against the windows of the
	// other inputs; a match across all inputs emits one output tuple.
	var outs []Tuple
	matches := 1
	var sum float64 = t.Value
	for _, in := range o.op.Inputs {
		if in == t.Stream {
			continue
		}
		ow := o.windows[in]
		hits := ow.matching(t.Key)
		if len(hits) == 0 {
			return nil
		}
		matches *= len(hits)
		sum += hits[len(hits)-1].Value
	}
	// Emit one representative output per arrival (full cross-products
	// would swamp the demo engine; selectivity is modelled by key-domain
	// sizing instead).
	o.outSeq++
	outs = append(outs, Tuple{
		Stream:    o.op.Output,
		Key:       t.Key,
		Value:     sum,
		SeqNo:     o.outSeq,
		BornNanos: t.BornNanos, // latency measured from the newest input
	})
	_ = matches
	return outs
}

// window is a bounded FIFO of tuples with a hash index on the join key.
type window struct {
	cap   int
	fifo  []Tuple
	byKey map[int64][]int // key → indices into fifo (may contain stale)
}

func newWindow(cap int) *window {
	return &window{cap: cap, byKey: make(map[int64][]int)}
}

func (w *window) add(t Tuple) {
	if len(w.fifo) >= w.cap {
		// Evict the oldest tuple; rebuild its key bucket lazily.
		old := w.fifo[0]
		w.fifo = w.fifo[1:]
		idxs := w.byKey[old.Key]
		if len(idxs) > 0 {
			w.byKey[old.Key] = idxs[1:]
		}
		// Shift stored indices (bounded cap keeps this cheap).
		for k, v := range w.byKey {
			for i := range v {
				v[i]--
			}
			w.byKey[k] = v
		}
	}
	w.fifo = append(w.fifo, t)
	w.byKey[t.Key] = append(w.byKey[t.Key], len(w.fifo)-1)
}

// matching returns the live tuples with the given key.
func (w *window) matching(key int64) []Tuple {
	idxs := w.byKey[key]
	out := make([]Tuple, 0, len(idxs))
	for _, i := range idxs {
		if i >= 0 && i < len(w.fifo) && w.fifo[i].Key == key {
			out = append(out, w.fifo[i])
		}
	}
	return out
}
