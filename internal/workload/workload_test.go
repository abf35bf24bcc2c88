package workload

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"sqpr/internal/dsps"
)

func testSystem(hosts int) *dsps.System {
	return BuildSystem(SystemConfig{NumHosts: hosts, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50})
}

func TestGenerateBasics(t *testing.T) {
	sys := testSystem(5)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 30
	cfg.NumQueries = 20
	w := Generate(sys, cfg)
	if len(w.BaseStreams) != 30 {
		t.Fatalf("base streams: %d", len(w.BaseStreams))
	}
	if len(w.Queries) != 20 {
		t.Fatalf("queries: %d", len(w.Queries))
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		if !sys.Streams[q].Requested {
			t.Fatalf("query stream %d not marked requested", q)
		}
		if sys.Streams[q].IsBase() {
			t.Fatalf("query stream %d is a base stream", q)
		}
	}
	// Every base stream is placed on exactly one host.
	for _, b := range w.BaseStreams {
		if len(sys.BaseHosts(b)) != 1 {
			t.Fatalf("base stream %d has %d hosts", b, len(sys.BaseHosts(b)))
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 25
	cfg.NumQueries = 15
	w1 := Generate(testSystem(4), cfg)
	w2 := Generate(testSystem(4), cfg)
	if len(w1.Queries) != len(w2.Queries) {
		t.Fatal("lengths differ")
	}
	for i := range w1.Queries {
		if w1.Queries[i] != w2.Queries[i] {
			t.Fatalf("query %d differs: %d vs %d", i, w1.Queries[i], w2.Queries[i])
		}
	}
}

func TestCanonicalisationSharesStreams(t *testing.T) {
	// With a tiny base-stream pool and strong skew, queries must collide
	// and the registry must reuse composite streams and operators.
	sys := testSystem(3)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 4
	cfg.NumQueries = 30
	cfg.Arities = []int{2}
	cfg.Zipf = 0
	w := Generate(sys, cfg)
	seen := map[dsps.StreamID]bool{}
	dups := 0
	for _, q := range w.Queries {
		if seen[q] {
			dups++
		}
		seen[q] = true
	}
	if dups == 0 {
		t.Fatal("expected duplicate queries with 4 base streams and 30 2-way joins")
	}
	// At most C(4,2)=6 distinct 2-way join operators exist.
	joins := 0
	for _, op := range sys.Operators {
		if len(op.Inputs) == 2 {
			joins++
		}
	}
	if joins > 6 {
		t.Fatalf("operator space not canonicalised: %d binary joins", joins)
	}
}

func TestPlanSpaceCompleteness3Way(t *testing.T) {
	// A single 3-way query over {a,b,c} must register: three 2-way
	// sub-joins and three ways to build the 3-way result.
	sys := testSystem(2)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 3
	cfg.NumQueries = 1
	cfg.Arities = []int{3}
	w := Generate(sys, cfg)
	q := w.Queries[0]
	producers := sys.ProducersOf(q)
	if len(producers) != 3 {
		t.Fatalf("3-way stream has %d producers, want 3 (one per split)", len(producers))
	}
	// Total operators: 3 pair joins + 3 top joins.
	if len(sys.Operators) != 6 {
		t.Fatalf("operator space has %d ops, want 6", len(sys.Operators))
	}
}

func TestCompositeRateOrderIndependent(t *testing.T) {
	// The rate of a composite stream depends only on its base set, so all
	// producers of the same stream imply one consistent rate.
	sys := testSystem(2)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 4
	cfg.NumQueries = 5
	cfg.Arities = []int{4}
	w := Generate(sys, cfg)
	for _, q := range w.Queries {
		rate := sys.Streams[q].Rate
		if rate <= 0 {
			t.Fatalf("non-positive composite rate %v", rate)
		}
		if rate >= cfg.BaseRate {
			t.Fatalf("composite rate %v not reduced below base rate (selectivity)", rate)
		}
	}
}

func TestCompositeRatesDecreaseWithArity(t *testing.T) {
	f := func(seed int64) bool {
		sys := testSystem(2)
		cfg := DefaultConfig()
		cfg.NumBaseStreams = 6
		cfg.NumQueries = 2
		cfg.Arities = []int{4}
		cfg.Seed = seed
		w := Generate(sys, cfg)
		// Walk the producers: every join's output rate must be below the
		// product of its input rates (selectivity < 1 after scaling).
		for _, op := range sys.Operators {
			out := sys.Streams[op.Output].Rate
			in := 1.0
			for _, s := range op.Inputs {
				in *= sys.Streams[s].Rate
			}
			if out > in {
				return false
			}
		}
		_ = w
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	// With a strong skew, the most popular base stream must appear far
	// more often than the least popular one.
	sys := testSystem(3)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 50
	cfg.NumQueries = 300
	cfg.Arities = []int{2}
	cfg.Zipf = 1.5
	w := Generate(sys, cfg)
	counts := map[dsps.StreamID]int{}
	for _, q := range w.Queries {
		for _, op := range sys.ProducersOf(q) {
			for _, in := range sys.Operators[op].Inputs {
				if sys.Streams[in].IsBase() {
					counts[in]++
				}
			}
		}
	}
	if counts[w.BaseStreams[0]] <= counts[w.BaseStreams[49]] {
		t.Fatalf("no skew: first=%d last=%d", counts[w.BaseStreams[0]], counts[w.BaseStreams[49]])
	}
}

func TestZipfZeroIsRoughlyUniform(t *testing.T) {
	sys := testSystem(3)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 10
	cfg.NumQueries = 500
	cfg.Arities = []int{2}
	cfg.Zipf = 0
	w := Generate(sys, cfg)
	counts := make(map[dsps.StreamID]int)
	total := 0
	for _, q := range w.Queries {
		producers := sys.ProducersOf(q)
		op := sys.Operators[producers[0]]
		for _, in := range op.Inputs {
			if sys.Streams[in].IsBase() {
				counts[in]++
				total++
			}
		}
	}
	mean := float64(total) / 10
	for s, c := range counts {
		if math.Abs(float64(c)-mean) > mean*0.6 {
			t.Fatalf("stream %d count %d deviates wildly from uniform mean %.1f", s, c, mean)
		}
	}
}

func TestOperatorCostsPositive(t *testing.T) {
	sys := testSystem(3)
	cfg := DefaultConfig()
	cfg.NumBaseStreams = 12
	cfg.NumQueries = 10
	w := Generate(sys, cfg)
	_ = w
	for _, op := range sys.Operators {
		if op.Cost <= 0 {
			t.Fatalf("operator %d has non-positive cost %v", op.ID, op.Cost)
		}
	}
}

func TestSubsetOfAndPopcount(t *testing.T) {
	set := []dsps.StreamID{10, 20, 30}
	if got := string(appendSetName(nil, set, 0b101)); got != "join{10,30}" {
		t.Fatalf("appendSetName: %q", got)
	}
	if got := string(appendSetName([]byte("x"), set, 0b111)); got != "xjoin{10,20,30}" {
		t.Fatalf("appendSetName after a prefix: %q", got)
	}
	if bits.OnesCount(0b1011) != 3 {
		t.Fatal("popcount wrong")
	}
}

func TestSelectivityDeterministicInRange(t *testing.T) {
	g := &generator{sys: testSystem(2), cfg: DefaultConfig(), registry: map[[2]dsps.StreamID]dsps.StreamID{}}
	s1 := g.selectivity([]byte("1,2,3"))
	s2 := g.selectivity([]byte("1,2,3"))
	if s1 != s2 {
		t.Fatal("selectivity not deterministic")
	}
	if s1 < g.cfg.SelMin || s1 > g.cfg.SelMax {
		t.Fatalf("selectivity %v outside [%v,%v]", s1, g.cfg.SelMin, g.cfg.SelMax)
	}
}
