package core

import (
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
				if b.hostsTouched() <= p.cfg.MaxCandidateHosts {
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

// hostsTouched estimates how many hosts the current allocation of the free
// set involves.
func (b *builder) hostsTouched() int {
	touched := make([]bool, b.sys.NumHosts())
	n := 0
	touch := func(h dsps.HostID) {
		if !touched[h] {
			touched[h] = true
			n++
		}
	}
	st := b.planner.Assignment()
	for _, f := range st.Flows {
		if b.hasStream(f.Stream) {
			touch(f.From)
			touch(f.To)
		}
	}
	for _, pl := range st.Ops {
		if b.hasStream(b.sys.Operators[pl.Op].Output) {
			touch(pl.Host)
		}
	}
	return n
}
