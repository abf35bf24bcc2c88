package core

import (
	"math"
	"slices"

	"sqpr/internal/dsps"
)

// closureCache memoises S(q), the set of all streams that can appear in
// query plans for q (§IV-A). The closure follows every alternative producer
// of every composite stream recursively down to base streams.
type closureCache struct {
	sys  *dsps.System
	memo [][]dsps.StreamID // by StreamID; nil = not computed (S(q) ∋ q)
	seen []bool            // by StreamID; all false between calls
}

func newClosureCache(sys *dsps.System) *closureCache {
	return &closureCache{sys: sys}
}

// streamsOf returns S(q) as a sorted slice (deterministic iteration).
func (c *closureCache) streamsOf(q dsps.StreamID) []dsps.StreamID {
	if n := len(c.sys.Streams); len(c.memo) < n {
		c.memo = append(c.memo, make([][]dsps.StreamID, n-len(c.memo))...)
		c.seen = append(c.seen, make([]bool, n-len(c.seen))...)
	}
	if c.memo[q] != nil {
		return c.memo[q]
	}
	// out doubles as the work list: streams behind next are expanded.
	out := []dsps.StreamID{q}
	c.seen[q] = true
	for next := 0; next < len(out); next++ {
		for _, op := range c.sys.ProducersOf(out[next]) {
			for _, in := range c.sys.Operators[op].Inputs {
				if !c.seen[in] {
					c.seen[in] = true
					out = append(out, in)
				}
			}
		}
	}
	for _, s := range out {
		c.seen[s] = false
	}
	slices.Sort(out)
	c.memo[q] = out
	return out
}

// mergeSharers expands the free set of the new queries' closures
// transitively with the closures of every admitted query that shares a
// stream with it (SQPR "only reconsiders the allocation of those operators
// that share base or composite streams with the new query").
func (b *builder) mergeSharers() {
	p := b.planner
	if p.cfg.DisableReduction {
		for s := range p.sys.Streams {
			b.addFree([]dsps.StreamID{dsps.StreamID(s)})
		}
		return
	}
	// Merge the closures of sharing queries in deterministic order until
	// the free-set budget is exhausted; remaining sharers stay fixed and
	// are protected by availability-preservation rows. A merge that would
	// inflate the candidate host set beyond its cap is rolled back, keeping
	// the reduced model tractable.
	admitted := p.AdmittedQueries()
	b.clearTouched()
	b.touchFree(0, math.MaxInt)
	for changed := true; changed && len(b.freeStreams) < p.cfg.MaxFreeStreams; {
		changed = false
		for _, q := range admitted {
			if b.hasStream(q) {
				continue // whole closure already merged
			}
			cl := p.closures.streamsOf(q)
			if slices.ContainsFunc(cl, b.hasStream) && len(b.freeStreams)+len(cl) <= p.cfg.MaxFreeStreams {
				mark := len(b.freeStreams)
				b.addFree(cl)
				if b.touchFree(mark, p.cfg.MaxCandidateHosts) {
					changed = true
				} else {
					b.truncFree(mark)
				}
			}
			if len(b.freeStreams) >= p.cfg.MaxFreeStreams {
				break
			}
		}
	}
}

// clearTouched empties touchFree's set of touched hosts.
func (b *builder) clearTouched() {
	if n := b.sys.NumHosts(); len(b.isTouched) != n {
		b.isTouched = make([]bool, n)
	} else {
		clear(b.isTouched)
	}
	b.touched = 0
}

// touchFree adds to the touched hosts — those the current allocation of the
// free set involves: both ends of a free stream's flow and the host of its
// producer's placement — the hosts of the streams added to the free set
// since it had mark members, and reports whether at most limit hosts are
// touched then. When more would be, it stops and leaves the touched set as
// it was. So a merge attempt costs the closure it adds, not the whole
// allocation, and a refused one less.
func (b *builder) touchFree(mark, limit int) bool {
	st := b.planner.Assignment()
	added := b.newTouched[:0]
	touch := func(h dsps.HostID) bool {
		if !b.isTouched[h] {
			b.isTouched[h] = true
			added = append(added, h)
		}
		return b.touched+len(added) <= limit
	}
	fits := true
scan:
	for _, s := range b.freeStreams[mark:] {
		for _, f := range st.FlowsOf(s) {
			if !touch(f.From) || !touch(f.To) {
				fits = false
				break scan
			}
		}
		for _, op := range b.sys.ProducersOf(s) {
			for _, pl := range st.PlacementsOf(op) {
				if !touch(pl.Host) {
					fits = false
					break scan
				}
			}
		}
	}
	if fits {
		b.touched += len(added)
	} else {
		for _, h := range added {
			b.isTouched[h] = false
		}
	}
	b.newTouched = added
	return fits
}
