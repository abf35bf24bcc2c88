package core

import (
	"math"
	"slices"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
)

// closureCache memoises S(q), the set of all streams that can appear in
// query plans for q (§IV-A). The closure follows every alternative producer
// of every composite stream recursively down to base streams. Beside it
// sits the reverse index mergeSharers reads: for each stream, the queries
// whose closure holds it.
type closureCache struct {
	sys  *dsps.System
	memo [][]dsps.StreamID // by StreamID; nil = not computed (S(q) ∋ q)
	seen []bool            // by StreamID; all false between calls

	// sharers lists by StreamID, ascending, the indexed queries whose
	// closure holds the stream; indexed marks those queries. Both are sized
	// to the system's streams when the index is built, and rebuilt when
	// the system has grown (indexSharers).
	sharers [][]dsps.StreamID
	indexed []bool
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

// sharersOf returns the indexed queries whose closure holds s, ascending.
// Every admitted query is indexed (Planner.indexSharers), so among them
// are all the admitted queries that share s.
func (c *closureCache) sharersOf(s dsps.StreamID) []dsps.StreamID { return c.sharers[s] }

// index adds query q to the reverse index unless it is there already.
func (c *closureCache) index(q dsps.StreamID) {
	if c.indexed[q] {
		return
	}
	c.indexed[q] = true
	for _, s := range c.streamsOf(q) {
		i, _ := slices.BinarySearch(c.sharers[s], q)
		c.sharers[s] = slices.Insert(c.sharers[s], i, q)
	}
}

// indexSharers adds the queries of a Submit to the reverse index. First it
// builds the index, over every requested stream and every admitted query,
// when the index does not cover the system's streams: on first use, after
// ImportState dropped it, and should streams be added later. So an
// admitted query is always indexed.
func (p *Planner) indexSharers(queries []dsps.StreamID) {
	c := p.closures
	if n := len(p.sys.Streams); len(c.sharers) != n {
		c.sharers, c.indexed = make([][]dsps.StreamID, n), make([]bool, n)
		for s := range p.sys.Streams {
			if p.sys.Streams[s].Requested {
				c.index(dsps.StreamID(s))
			}
		}
		for _, q := range p.AdmittedQueries() {
			c.index(q)
		}
	}
	for _, q := range queries {
		c.index(q)
	}
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
	var want []dsps.StreamID
	if invariant.Enabled {
		defer b.mustMergeAsScan(len(b.freeStreams), &want)
	}
	// Merge the closures of sharing queries in ascending order, pass after
	// pass, until the free-set budget is exhausted; remaining sharers stay
	// fixed and are protected by availability-preservation rows. A merge
	// that would inflate the candidate host set beyond its cap is rolled
	// back, keeping the reduced model tractable.
	//
	// The candidates are the admitted queries whose closure meets the free
	// set, found through the reverse index from the streams each merge adds,
	// and kept ascending: a pass visits them in the order a scan of the
	// admitted set would meet them. One a merge finds above the query being
	// merged is visited later in the same pass, one below it in the next.
	b.clearTouched()
	b.touchFree(0, math.MaxInt)
	if b.sharerEpoch++; b.sharerEpoch == 0 {
		clear(b.sharerMet)
		b.sharerEpoch = 1
	}
	cands := b.addSharers(b.candScratch[:0], 0)
	slices.Sort(cands)
	for changed := true; changed && len(b.freeStreams) < p.cfg.MaxFreeStreams; {
		changed = false
		for i := 0; i < len(cands); i++ {
			q := cands[i]
			if b.hasStream(q) {
				continue // whole closure already merged
			}
			cl := p.closures.streamsOf(q)
			if len(b.freeStreams)+len(cl) <= p.cfg.MaxFreeStreams {
				mark := len(b.freeStreams)
				b.addFree(cl)
				if b.touchFree(mark, p.cfg.MaxCandidateHosts) {
					changed = true
					n := len(cands)
					cands = b.addSharers(cands, mark)
					i += insertSorted(cands, n, q)
				} else {
					b.truncFree(mark)
				}
			}
			if len(b.freeStreams) >= p.cfg.MaxFreeStreams {
				break
			}
		}
	}
	b.candScratch = cands
	if invariant.Enabled {
		want = slices.Clone(b.freeStreams)
	}
}

// addSharers appends to cands the admitted queries, not yet met this call
// and not free, that share a stream of the free set added since it had
// mark members, in no particular order.
func (b *builder) addSharers(cands []dsps.StreamID, mark int) []dsps.StreamID {
	p := b.planner
	if n := len(p.sys.Streams); len(b.sharerMet) < n {
		b.sharerMet = append(b.sharerMet, make([]uint32, n-len(b.sharerMet))...)
	}
	for _, s := range b.freeStreams[mark:] {
		for _, q := range p.closures.sharersOf(s) {
			// A query met once is decided for the call: admission does not
			// change within it, and a query that is free stays free.
			if b.sharerMet[q] == b.sharerEpoch {
				continue
			}
			b.sharerMet[q] = b.sharerEpoch
			if !b.hasStream(q) && p.Admitted(q) {
				cands = append(cands, q)
			}
		}
	}
	return cands
}

// insertSorted sorts the queries appended at cands[n:] into the ascending
// cands[:n] and reports how many of them went below q.
func insertSorted(cands []dsps.StreamID, n int, q dsps.StreamID) int {
	below := 0
	for k := n; k < len(cands); k++ {
		x := cands[k]
		i, _ := slices.BinarySearch(cands[:k], x)
		copy(cands[i+1:k+1], cands[i:k])
		cands[i] = x
		if x < q {
			below++
		}
	}
	return below
}

// mustMergeAsScan is the checked-build proof that the indexed merge frees
// what mergeByScan does, in the same order: it undoes the merge back to
// mark free streams and runs the scan in its place.
func (b *builder) mustMergeAsScan(mark int, want *[]dsps.StreamID) {
	b.truncFree(mark)
	b.mergeByScan()
	if !slices.Equal(b.freeStreams, *want) {
		invariant.Failf("core: the indexed sharer merge freed %v, the scan %v", *want, b.freeStreams)
	}
}

// mergeByScan is the sharing merge as a scan of the whole admitted set:
// every pass tests each admitted query's closure against the free set. It
// is the reference the indexed merge is held to.
func (b *builder) mergeByScan() {
	p := b.planner
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
