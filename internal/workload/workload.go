// Package workload generates the synthetic query workloads of §V of the
// SQPR paper: join queries over base streams chosen with a Zipf
// distribution, with join selectivities in a configurable range.
//
// Composite streams are canonicalised by their base-stream set: two
// sub-queries producing the same set are the *same* stream, which is
// exactly the paper's notion of stream equivalence ("produced by the same
// operators using the same input streams") and is what creates reuse
// opportunities. For every query the full space of binary join trees is
// registered as alternative operators, so planners can pick any join order.
package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"sqpr/internal/dsps"
)

// SystemConfig describes the simulated data-centre substrate.
type SystemConfig struct {
	NumHosts int
	// CPUPerHost is ζ_h, in abstract cost units.
	CPUPerHost float64
	// OutBW and InBW are β_h in rate units (e.g. Mbps).
	OutBW, InBW float64
	// LinkCap is κ_hm for all pairs.
	LinkCap float64
}

// BuildSystem creates a homogeneous system per the config.
func BuildSystem(cfg SystemConfig) *dsps.System {
	hosts := make([]dsps.Host, cfg.NumHosts)
	for i := range hosts {
		hosts[i] = dsps.Host{
			ID:    dsps.HostID(i),
			CPU:   cfg.CPUPerHost,
			OutBW: cfg.OutBW,
			InBW:  cfg.InBW,
		}
	}
	return dsps.NewSystem(hosts, cfg.LinkCap)
}

// Config describes a query workload.
type Config struct {
	// NumBaseStreams is the number of externally injected streams.
	NumBaseStreams int
	// BaseRate is the average data rate of each base stream.
	BaseRate float64
	// Zipf is the skew of base-stream popularity; 0 means uniform. The
	// paper uses 1 for most experiments.
	Zipf float64
	// Arities lists the join widths to draw from in equal parts
	// (paper: 2-, 3- and 4-way joins).
	Arities []int
	// NumQueries is the number of queries to generate.
	NumQueries int
	// SelMin and SelMax bound the per-join selectivity (paper: 0.001–0.005).
	SelMin, SelMax float64
	// CostPerRate converts aggregate input rate into operator CPU cost γ.
	CostPerRate float64
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig mirrors the paper's simulation workload at reduced scale.
func DefaultConfig() Config {
	return Config{
		NumBaseStreams: 120,
		BaseRate:       10,
		Zipf:           1,
		Arities:        []int{2, 3, 4},
		NumQueries:     200,
		SelMin:         0.001,
		SelMax:         0.005,
		CostPerRate:    0.05,
		Seed:           1,
	}
}

// Workload is a generated query sequence over a system.
type Workload struct {
	Sys *dsps.System
	// Queries holds the requested result streams in submission order.
	// Duplicate entries are possible (the same query submitted twice).
	Queries []dsps.StreamID
	// BaseStreams lists the generated base streams.
	BaseStreams []dsps.StreamID
}

// Generate builds a workload into sys: base streams are placed uniformly at
// random across hosts, queries are joins over Zipf-chosen base streams, and
// the full join-tree operator space of each query is registered.
func Generate(sys *dsps.System, cfg Config) *Workload {
	// The generator is private and seeded from the config: workload
	// synthesis never touches global math/rand state, so the same Config
	// always yields the same system and query stream regardless of what
	// else runs in the process.
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{
		Sys:         sys,
		Queries:     make([]dsps.StreamID, 0, cfg.NumQueries),
		BaseStreams: make([]dsps.StreamID, 0, cfg.NumBaseStreams),
	}
	// Reserve the system's tables for the largest plan space the queries
	// can register: the appends of AddStream and AddProducerFor then grow
	// nothing.
	composites, joins := planSpaceSize(cfg)
	sys.Streams = slices.Grow(sys.Streams, cfg.NumBaseStreams+composites)
	sys.Operators = slices.Grow(sys.Operators, joins)
	g := &generator{sys: sys, cfg: cfg, registry: make(map[[2]dsps.StreamID]dsps.StreamID, composites)}
	for i := 0; i < cfg.NumBaseStreams; i++ {
		g.name = strconv.AppendInt(append(g.name[:0], "base"...), int64(i), 10)
		s := sys.AddStream(cfg.BaseRate, dsps.NoOperator, g.nameString())
		sys.PlaceBase(dsps.HostID(rng.Intn(sys.NumHosts())), s)
		w.BaseStreams = append(w.BaseStreams, s)
	}
	z := newZipf(rng, cfg.Zipf, cfg.NumBaseStreams)
	for q := 0; q < cfg.NumQueries; q++ {
		k := cfg.Arities[q%len(cfg.Arities)]
		g.sampleDistinct(z, w.BaseStreams, k)
		result := g.registerPlanSpace()
		sys.SetRequested(result, true)
		w.Queries = append(w.Queries, result)
	}
	return w
}

// planSpaceSize bounds what the queries of cfg can register: a query of
// arity k has 2^k − k − 1 subsets of two or more base streams, each a
// composite stream, and (3^k + 1)/2 − 2^k unordered splits of them, each a
// join operator.
func planSpaceSize(cfg Config) (composites, joins int) {
	for q := 0; q < cfg.NumQueries; q++ {
		k := cfg.Arities[q%len(cfg.Arities)]
		pow3 := 1
		for range k {
			pow3 *= 3
		}
		composites += 1<<k - k - 1
		joins += (pow3+1)/2 - 1<<k
	}
	return composites, joins
}

// generator is the state of one Generate call: the composite streams
// registered so far and the scratch every query's registration reuses.
type generator struct {
	sys *dsps.System
	cfg Config
	// registry maps a base set T, |T| >= 2, to its composite stream. T is
	// keyed as (stream of T minus its largest member, that member): the
	// first is canonical by induction, so the pair is unique to T, and the
	// registration, which visits T after T's prefix, has it at hand.
	registry map[[2]dsps.StreamID]dsps.StreamID

	set     []dsps.StreamID // the query's base set, ascending
	streams []dsps.StreamID // the stream of each subset of set, by mask
	fresh   []bool          // whether this query created the mask's stream
	name    []byte          // the name being built
	names   strings.Builder // the block names are cut from
}

// nameString returns g.name as a string cut from a block shared with the
// names before it: the block's bytes before its end are never written
// again, so each name stays as it was cut.
func (g *generator) nameString() string {
	if g.names.Cap()-g.names.Len() < len(g.name) {
		g.names = strings.Builder{}
		g.names.Grow(max(len(g.name), 4096))
	}
	start := g.names.Len()
	g.names.Write(g.name)
	return g.names.String()[start:]
}

// sampleDistinct draws k distinct base streams into g.set, ascending.
func (g *generator) sampleDistinct(z *zipf, base []dsps.StreamID, k int) {
	g.set = g.set[:0]
	for len(g.set) < k {
		if s := base[z.next()]; !slices.Contains(g.set, s) {
			g.set = append(g.set, s)
		}
	}
	slices.Sort(g.set)
}

// appendSetName appends the name of the composite stream over the subset
// mask of set: "join{" + the subset's canonical key + "}".
func appendSetName(dst []byte, set []dsps.StreamID, mask int) []byte {
	dst = append(dst, "join{"...)
	for i, s := range set {
		if mask&(1<<i) == 0 {
			continue
		}
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
	}
	return append(dst, '}')
}

// selectivity derives a deterministic per-set selectivity inside
// [SelMin, SelMax] from a hash of the canonical key, so that stream
// identity implies identical rates regardless of join order or query.
func (g *generator) selectivity(key []byte) float64 {
	var h uint64 = 1469598103934665603
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	frac := float64(h%10000) / 10000
	return g.cfg.SelMin + frac*(g.cfg.SelMax-g.cfg.SelMin)
}

// streamFor returns the canonical composite stream over the subset mask of
// g.set, with |mask| >= 2, and whether this call created it; g.streams
// must hold the stream of every smaller mask. A new stream is named
// "join{" + key + "}", key being the set's ascending stream ids joined by
// commas, and its rate is Π rates · σ^(|mask|−1) with σ hashed from the
// key: a pure function of the set, so every join order yields the same
// rate.
func (g *generator) streamFor(mask int) (dsps.StreamID, bool) {
	top := bits.Len(uint(mask)) - 1
	id := [2]dsps.StreamID{g.streams[mask&^(1<<top)], g.set[top]}
	if s, ok := g.registry[id]; ok {
		return s, false
	}
	g.name = appendSetName(g.name[:0], g.set, mask)
	rate := 1.0
	for i, s := range g.set {
		if mask&(1<<i) != 0 {
			rate *= g.sys.Streams[s].Rate
		}
	}
	key := g.name[len("join{") : len(g.name)-1]
	rate *= math.Pow(g.selectivity(key), float64(bits.OnesCount(uint(mask))-1))
	// The producer is patched in by the first operator registered for it.
	s := g.sys.AddStream(rate, dsps.NoOperator, g.nameString())
	g.registry[id] = s
	return s, true
}

// registerPlanSpace registers, for every subset T of g.set with |T| >= 2
// and every unordered split {A, T\A}, a join operator
// stream(A) ⋈ stream(T\A) → stream(T). Returns the full-set stream.
//
// A stream an earlier query created had every split registered then, so
// only the streams this call creates get operators: no split is registered
// twice.
func (g *generator) registerPlanSpace() dsps.StreamID {
	n := len(g.set)
	full := (1 << n) - 1
	g.streams = slices.Grow(g.streams[:0], full+1)[:full+1]
	g.fresh = slices.Grow(g.fresh[:0], full+1)[:full+1]
	g.streams[0] = 0 // an arity-0 query requests stream 0
	for mask := 1; mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			g.streams[mask], g.fresh[mask] = g.set[bits.TrailingZeros(uint(mask))], false
		} else {
			g.streams[mask], g.fresh[mask] = g.streamFor(mask)
		}
	}
	for mask := 1; mask <= full; mask++ {
		if !g.fresh[mask] {
			continue
		}
		out := g.streams[mask]
		// Enumerate unordered splits: iterate submasks a with a < mask^a
		// complement comparison to visit each pair once.
		for a := (mask - 1) & mask; a > 0; a = (a - 1) & mask {
			b := mask &^ a
			if a > b {
				continue // unordered: visit each split once
			}
			inA, inB := g.streams[a], g.streams[b]
			cost := g.cfg.CostPerRate * (g.sys.Streams[inA].Rate + g.sys.Streams[inB].Rate)
			op := g.sys.AddProducerFor(out, []dsps.StreamID{inA, inB}, cost, "join")
			if g.sys.Streams[out].Producer == dsps.NoOperator {
				g.sys.Streams[out].Producer = op.ID
			}
		}
	}
	return g.streams[full]
}

// zipf samples ranks 0..n-1 with probability ∝ 1/(rank+1)^s; s = 0 yields
// the uniform distribution. Implemented directly (math/rand's Zipf does not
// support s <= 1).
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{rng: rng, cdf: cdf}
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
