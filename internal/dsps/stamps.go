package dsps

import "sync"

// Stamps is a pooled visited set over the availabilities (h, s) of a
// system, indexed by HSIndex. An availability is in the set when its stamp
// equals the current epoch, so starting over (Next) is one increment, and
// the array is cleared only when the epoch wraps. Beside the stamps sits a
// value array (Vals) for walks that record something per availability.
//
// Walks over large systems touch a few hundred of the H·S availabilities;
// pooling the arrays keeps them from allocating and zeroing all of them
// per call.
type Stamps struct {
	stamp []uint32
	val   []uint32
	// list is a work list of availabilities for the walks of this package,
	// empty on GetStamps, its capacity pooled with the arrays.
	list  []int
	epoch uint32
}

var stampPool = sync.Pool{New: func() any { return new(Stamps) }}

// GetStamps returns an empty pooled set sized for sys. Release it when done.
func GetStamps(sys *System) *Stamps {
	st := stampPool.Get().(*Stamps)
	n := len(sys.Hosts) * len(sys.Streams)
	// Every stored stamp is at most the epoch, which only grows, so the
	// entries a resize exposes never read as stamped after Next.
	if cap(st.stamp) < n {
		st.stamp = make([]uint32, n)
	}
	st.stamp = st.stamp[:n]
	st.list = st.list[:0]
	st.Next()
	return st
}

// Release returns st to the pool; st must not be used afterwards.
func (st *Stamps) Release() { stampPool.Put(st) }

// Next starts a fresh epoch: every availability reads unstamped again.
func (st *Stamps) Next() {
	st.epoch++
	if st.epoch == 0 {
		clear(st.stamp[:cap(st.stamp)])
		st.epoch = 1
	}
}

// Stamp adds availability i and reports whether it was absent.
func (st *Stamps) Stamp(i int) bool {
	if st.stamp[i] == st.epoch {
		return false
	}
	st.stamp[i] = st.epoch
	return true
}

// Stamped reports whether availability i is in the set.
func (st *Stamps) Stamped(i int) bool { return st.stamp[i] == st.epoch }

// Vals returns the value array beside the stamps, one entry per
// availability. Entries are left over from earlier users: only those
// written since the availability was stamped mean anything.
func (st *Stamps) Vals() []uint32 {
	if n := len(st.stamp); cap(st.val) < n {
		st.val = make([]uint32, n)
	}
	return st.val[:len(st.stamp)]
}
