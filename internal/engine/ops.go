package engine

import "sqpr/internal/dsps"

// opInstance is one placed operator. A unary operator passes every tuple
// through onto its output stream: the model treats selection as rate
// reduction, which the report accounts through stream rates. An n-ary
// operator is a sliding-window symmetric hash join on the tuple key.
type opInstance struct {
	op      *dsps.Operator
	windows map[dsps.StreamID]*window
}

func newOpInstance(op *dsps.Operator) *opInstance {
	inst := &opInstance{op: op, windows: make(map[dsps.StreamID]*window)}
	for _, in := range op.Inputs {
		inst.windows[in] = newWindow(windowSize)
	}
	return inst
}

// consume takes one tuple of input stream s and reports whether the
// operator emits a tuple with the same key. A join keeps the tuple in its
// input's window and emits one representative output when every other
// input's window holds the key (full cross-products would swamp the demo
// engine; selectivity is modelled by the key domain instead).
func (o *opInstance) consume(s dsps.StreamID, key int64) bool {
	if len(o.op.Inputs) == 1 {
		return true
	}
	o.windows[s].add(key)
	for _, in := range o.op.Inputs {
		if in != s && o.windows[in].matching(key) == 0 {
			return false
		}
	}
	return true
}

// window holds the keys of the last cap tuples of one join input.
type window struct {
	cap   int
	fifo  []int64       // retained keys, oldest first
	count map[int64]int // retained tuples per key
}

func newWindow(cap int) *window {
	return &window{cap: cap, count: make(map[int64]int)}
}

func (w *window) add(key int64) {
	if len(w.fifo) == w.cap {
		old := w.fifo[0]
		w.fifo = w.fifo[1:]
		if w.count[old]--; w.count[old] == 0 {
			delete(w.count, old)
		}
	}
	w.fifo = append(w.fifo, key)
	w.count[key]++
}

// matching returns how many retained tuples carry the key.
func (w *window) matching(key int64) int { return w.count[key] }
