package core

import (
	"slices"

	"sqpr/internal/dsps"
)

// closureCache memoises S(q), the set of all streams that can appear in
// query plans for q (§IV-A). The closure follows every alternative producer
// of every composite stream recursively down to base streams.
type closureCache struct {
	sys   *dsps.System
	memo  map[dsps.StreamID][]dsps.StreamID
	stamp int
}

func newClosureCache(sys *dsps.System) *closureCache {
	return &closureCache{sys: sys, memo: make(map[dsps.StreamID][]dsps.StreamID)}
}

// streamsOf returns S(q) as a sorted slice (deterministic iteration).
func (c *closureCache) streamsOf(q dsps.StreamID) []dsps.StreamID {
	if s, ok := c.memo[q]; ok {
		return s
	}
	seen := make(map[dsps.StreamID]bool)
	var stack []dsps.StreamID
	stack = append(stack, q)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		for _, op := range c.sys.ProducersOf(s) {
			for _, in := range c.sys.Operators[op].Inputs {
				if !seen[in] {
					stack = append(stack, in)
				}
			}
		}
	}
	out := make([]dsps.StreamID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	c.memo[q] = out
	return out
}

// freeSet computes the set of free streams for planning the given new
// queries: the closures of the new queries, expanded transitively with the
// closures of every admitted query that shares a stream with the set
// (SQPR "only reconsiders the allocation of those operators that share
// base or composite streams with the new query").
func (p *Planner) freeSet(newQueries []dsps.StreamID) map[dsps.StreamID]bool {
	free := make(map[dsps.StreamID]bool)
	for _, q := range newQueries {
		for _, s := range p.closures.streamsOf(q) {
			free[s] = true
		}
	}
	if p.cfg.DisableReduction {
		for s := range p.sys.Streams {
			free[dsps.StreamID(s)] = true
		}
		return free
	}
	if p.cfg.DisableReplan {
		// Ablation: do not pull in sharing queries; their variables stay
		// fixed and only availability-preservation constraints are added.
		return free
	}
	// Merge the closures of sharing queries in deterministic order until
	// the free-set budget is exhausted; remaining sharers stay fixed and
	// are protected by availability-preservation rows.
	admitted := p.AdmittedQueries()
	for changed := true; changed && len(free) < p.cfg.MaxFreeStreams; {
		changed = false
		for _, q := range admitted {
			if free[q] {
				continue // whole closure already merged
			}
			cl := p.closures.streamsOf(q)
			shares := false
			for _, s := range cl {
				if free[s] {
					shares = true
					break
				}
			}
			if shares && len(free)+len(cl) <= p.cfg.MaxFreeStreams &&
				p.hostsTouched(free, cl) <= p.cfg.MaxCandidateHosts {
				for _, s := range cl {
					free[s] = true
				}
				free[q] = true
				changed = true
			}
			if len(free) >= p.cfg.MaxFreeStreams {
				break
			}
		}
	}
	return free
}

// hostsTouched estimates how many hosts the current allocation of the
// candidate free set (free ∪ extra) involves; merging a sharing query is
// declined when it would inflate the candidate host set beyond the cap,
// keeping the reduced model tractable.
func (p *Planner) hostsTouched(free map[dsps.StreamID]bool, extra []dsps.StreamID) int {
	in := func(s dsps.StreamID) bool {
		if free[s] {
			return true
		}
		for _, e := range extra {
			if e == s {
				return true
			}
		}
		return false
	}
	hosts := make(map[dsps.HostID]bool)
	st := p.Assignment()
	for f := range st.Flows {
		if in(f.Stream) {
			hosts[f.From] = true
			hosts[f.To] = true
		}
	}
	for pl := range st.Ops {
		if in(p.sys.Operators[pl.Op].Output) {
			hosts[pl.Host] = true
		}
	}
	return len(hosts)
}

// freeOperators returns every operator whose output stream is free; by
// construction of the closure their inputs are free too.
func (p *Planner) freeOperators(free map[dsps.StreamID]bool) []dsps.OperatorID {
	var ops []dsps.OperatorID
	for s := range free {
		for _, op := range p.sys.ProducersOf(s) {
			ops = append(ops, op)
		}
	}
	slices.Sort(ops)
	return ops
}
