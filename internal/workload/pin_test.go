package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"testing"

	"sqpr/internal/dsps"
)

// pinnedShape is one generator configuration whose output is pinned by hash.
type pinnedShape struct {
	name string
	sys  SystemConfig
	cfg  Config
}

// benchConfig is the workload configuration the end-to-end benchmark
// generates its populations with, on nb base streams at skew zipf.
func benchConfig(nb int, zipf float64, queries int) Config {
	return Config{
		NumBaseStreams: nb, BaseRate: 10, Zipf: zipf,
		Arities: []int{2, 3}, NumQueries: queries,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	}
}

// pinnedShapes are the benchmark's two clusters (s15: the daemon's Zipf-1
// cluster; s32: the wide uniform one of large_state), the default workload
// and an arity-5 Zipf workload, whose 31-subset plan spaces exercise every
// level of the registration.
func pinnedShapes() []pinnedShape {
	arity5 := DefaultConfig()
	arity5.NumBaseStreams = 60
	arity5.Arities = []int{5}
	arity5.NumQueries = 40
	arity5.Seed = 3
	return []pinnedShape{
		{"s15", SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25}, benchConfig(150, 1, 300)},
		{"s32", SystemConfig{NumHosts: 32, CPUPerHost: 40, OutBW: 300, InBW: 300, LinkCap: 80}, benchConfig(1200, 0, 800)},
		{"default16", SystemConfig{NumHosts: 16, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50}, DefaultConfig()},
		{"arity5", SystemConfig{NumHosts: 16, CPUPerHost: 10, OutBW: 100, InBW: 100, LinkCap: 50}, arity5},
	}
}

// TestGeneratedSystemsArePinned holds Generate to the bytes it has always
// built: the sha256 of the system's JSON and of the query sequence's JSON
// for each pinned shape. Every figure, benchmark population and daemon
// start-up is a function of these bytes, so a generator change that moves
// one moves decisions everywhere.
func TestGeneratedSystemsArePinned(t *testing.T) {
	want := map[string][2]string{
		"s15":       {"958edb7c26b27f6ebb41c27622339878c3c8fd2f9cca1e061d773f1410c9d5a0", "2813a2a40f73b5f97da4a0ac946cb1ca68025af8ee090ab6f6746e89ccaa1249"},
		"s32":       {"9556befb93bd02432d87d08d72ec9ea2cb222e632710968ebaf4d95b8a671baf", "74a06330f3f3867894d8c072ec3a94146b1953c1eba4250994c29dcde44a2b9d"},
		"default16": {"7c20d87ec27b15f7d9becca1b41a2619ed1862d47e68be66c7d20ae606d61a34", "4c82b00bfb60368e7d68ce3659f165ae7d972fd47ad9051e59bf67f70d1a28f6"},
		"arity5":    {"00dec63f9c2b6f458b1588d86b55c0ba2415e70472ba3192eee17ab2f7531b8b", "2e20ebf21c83d00631046c87c08acf8c3d23fed8611d701e50414a9824bfb2f8"},
	}
	for _, sh := range pinnedShapes() {
		sys := BuildSystem(sh.sys)
		w := Generate(sys, sh.cfg)
		sysJSON, err := json.Marshal(sys)
		if err != nil {
			t.Fatal(err)
		}
		qJSON, err := json.Marshal(w.Queries)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{sha(sysJSON), sha(qJSON)}
		if got != want[sh.name] {
			t.Errorf("%s: system %s queries %s, want system %s queries %s", sh.name, got[0], got[1], want[sh.name][0], want[sh.name][1])
		}
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestPlanSpaceSizeBoundsGenerate holds planSpaceSize to what Generate
// registers: a bound on every pinned shape, so the tables it reserves never
// grow, and exact on queries that share nothing.
func TestPlanSpaceSizeBoundsGenerate(t *testing.T) {
	disjoint := DefaultConfig()
	disjoint.NumBaseStreams = 9
	disjoint.Arities = []int{4, 5}
	disjoint.NumQueries = 1
	shapes := append(pinnedShapes(), pinnedShape{"disjoint", SystemConfig{NumHosts: 2}, disjoint})
	for _, sh := range shapes {
		sys := BuildSystem(sh.sys)
		Generate(sys, sh.cfg)
		composites, joins := planSpaceSize(sh.cfg)
		streams := sh.cfg.NumBaseStreams + composites
		if len(sys.Streams) > streams || len(sys.Operators) > joins {
			t.Errorf("%s: %d streams and %d operators, bound %d and %d", sh.name, len(sys.Streams), len(sys.Operators), streams, joins)
		}
		// A reservation's capacity is rounded up to a size class; a table
		// that outgrew it would have another.
		reserved := [2]int{cap(slices.Grow([]dsps.Stream(nil), streams)), cap(slices.Grow([]dsps.Operator(nil), joins))}
		if got := [2]int{cap(sys.Streams), cap(sys.Operators)}; got != reserved {
			t.Errorf("%s: tables at capacity %v, reserved %v", sh.name, got, reserved)
		}
		if sh.name == "disjoint" && (len(sys.Streams) != streams || len(sys.Operators) != joins) {
			t.Errorf("disjoint: %d streams and %d operators, want %d and %d", len(sys.Streams), len(sys.Operators), streams, joins)
		}
	}
}
