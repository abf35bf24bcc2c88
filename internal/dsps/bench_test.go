package dsps_test

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/heuristic"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// largeState is the allocation the bench's large_state workload runs on: its
// 32-host uniform cluster and 800-query population (H·S = 32 × 3196), with
// 300 queries admitted. The heuristic planner fills it; the allocation's
// shape (hundreds of provides, flows and placements) is what the passes
// below cost, not which planner placed them.
var largeState = sync.OnceValues(func() (*dsps.System, *dsps.Assignment) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 32, CPUPerHost: 40, OutBW: 300, InBW: 300, LinkCap: 80})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 1200, BaseRate: 10, Arities: []int{2, 3}, NumQueries: 800,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	p := heuristic.New(sys, core.PaperWeights())
	for _, q := range w.Queries {
		if p.AdmittedCount() == 300 {
			break
		}
		if _, err := p.Submit(context.Background(), q); err != nil {
			panic(err)
		}
	}
	return sys, p.Assignment().Clone()
})

func BenchmarkAssignmentClone(b *testing.B) {
	_, a := largeState()
	b.ReportAllocs()
	for b.Loop() {
		a.Clone()
	}
}

func BenchmarkAssignmentValidate(b *testing.B) {
	sys, a := largeState()
	b.ReportAllocs()
	for b.Loop() {
		if err := a.Validate(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignmentGarbageCollect collects after one query's withdrawal,
// as Remove does; the clone it runs on is set up outside the timer.
func BenchmarkAssignmentGarbageCollect(b *testing.B) {
	sys, a := largeState()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		c := a.Clone()
		c.DeleteProvide(a.Provides[i%len(a.Provides)].Stream)
		b.StartTimer()
		c.GarbageCollect(sys)
	}
}

// BenchmarkAssignmentWithdrawAndCollect is BenchmarkAssignmentGarbageCollect
// through the scoped collection Remove uses: the withdrawal and the walks
// of the withdrawn query's support, not of the whole allocation.
func BenchmarkAssignmentWithdrawAndCollect(b *testing.B) {
	sys, a := largeState()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		c := a.Clone()
		b.StartTimer()
		c.WithdrawAndCollect(sys, a.Provides[i%len(a.Provides)].Stream)
	}
}

// BenchmarkAssignmentDiff diffs the journal's two states around one remove.
func BenchmarkAssignmentDiff(b *testing.B) {
	sys, a := largeState()
	after := a.Clone()
	q := a.Provides[len(a.Provides)/2].Stream
	after.DeleteProvide(q)
	after.GarbageCollect(sys)
	var admitted []dsps.StreamID
	for _, p := range after.Provides {
		admitted = append(admitted, p.Stream)
	}
	s1, s2 := plan.ExportedState(sys, a, admitted), plan.ExportedState(sys, after, admitted)
	s1.Admitted = append(s1.Admitted, q)
	slices.Sort(s1.Admitted)
	b.ReportAllocs()
	for b.Loop() {
		plan.Diff(s1, s2)
	}
}

// TestLargeStatePassesStayOffHS: GarbageCollect, Validate, WalkSupport and
// the scoped passes WithdrawAndCollect and ValidateExtension stamp a pooled
// array instead of allocating one of H·S entries per call, so on the large
// state each allocates less than H·S bytes. The bound holds only outside
// -race builds: the race detector drops a quarter of what goes back into a
// sync.Pool on purpose, and a median of nine calls can still land on a
// dropped array. Race builds run the passes and every other check.
func TestLargeStatePassesStayOffHS(t *testing.T) {
	sys, a := largeState()
	hs := uint64(len(sys.Hosts) * len(sys.Streams))
	c := a.Clone()
	c.GarbageCollect(sys) // collected already, so each call below is a full pass that deletes nothing

	// Each withdrawal runs on a clone made before the count starts. The
	// extension is the support one query's withdrawal frees, added back.
	var clones []*dsps.Assignment
	for range 10 {
		clones = append(clones, a.Clone())
	}
	q := a.Provides[len(a.Provides)/2]
	without := a.Clone()
	without.WithdrawAndCollect(sys, q.Stream)
	ext := dsps.Extension{Provides: []dsps.Provide{q}}
	ext.Flows, _ = dsps.DiffSorted(without.Flows, a.Flows, dsps.CompareFlows)
	ext.Ops, _ = dsps.DiffSorted(without.Ops, a.Ops, dsps.ComparePlacements)
	if len(ext.Ops) == 0 {
		t.Fatal("the withdrawn query freed no placement")
	}
	for name, pass := range map[string]func(){
		"WithdrawAndCollect": func() {
			clones[0].WithdrawAndCollect(sys, q.Stream)
			clones = clones[1:]
		},
		"ValidateExtension": func() {
			if err := c.ValidateExtension(sys, &ext); err != nil {
				t.Fatal(err)
			}
		},
		"GarbageCollect": func() { c.GarbageCollect(sys) },
		"Validate": func() {
			if err := c.Validate(sys); err != nil {
				t.Fatal(err)
			}
		},
		"WalkSupport": func() {
			seen := dsps.GetStamps(sys)
			for _, p := range c.Provides {
				c.WalkSupport(sys, p.Host, p.Stream, seen, nil, nil)
			}
			seen.Release()
		},
	} {
		pass() // fill the pool
		var per []uint64
		var ms runtime.MemStats
		for range 9 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			pass()
			runtime.ReadMemStats(&ms)
			per = append(per, ms.TotalAlloc-before)
		}
		slices.Sort(per)
		if med := per[len(per)/2]; !raceEnabled && med >= hs {
			t.Errorf("%s allocates %d bytes per call on the large state, want < H·S = %d", name, med, hs)
		}
	}
	if !slices.Equal(c.Flows, a.Flows) || !slices.Equal(c.Ops, a.Ops) {
		t.Fatal("the heuristic's allocation carried garbage; the passes above ran on a different state")
	}
}
