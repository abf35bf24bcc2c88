package core

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/plan"
)

// TestSeedAllocationsBounded: on a fixed S15-shaped state, a warm greedy
// seed allocates only its clone of the current allocation. Ranking hosts, probing trial flows and placements, rolling them
// back and accepting the winner all run on scratch pooled on the builder.
func TestSeedAllocationsBounded(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checked builds allocate scratch in their invariant checks")
	}
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	w := newChurnWalk()
	ctx := context.Background()
	for range 40 {
		if _, err := w.p.Submit(ctx, w.next(t)); err != nil {
			t.Fatal(err)
		}
	}
	q := w.next(t)
	w.p.beginCall(plan.SubmitConfig{})
	b := w.p.newBuilder([]dsps.StreamID{q}, false)
	var seed *dsps.Assignment
	run := func() { seed = b.seed() }
	run() // the first run sizes the builder's scratch
	if _, ok := seed.Provider(q); !ok || len(seed.Flows) <= len(w.p.Assignment().Flows) {
		t.Fatalf("the seed did not admit query %d over new flows; the state would not exercise the greedy", q)
	}
	// Four of them are the clone: the struct and its three slices.
	const maxAllocs = 5
	if allocs := testing.AllocsPerRun(10, run); allocs > maxAllocs {
		t.Fatalf("a warm seed allocated %v times, want <= %d", allocs, maxAllocs)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestBuildAllocationsBounded: on the state of TestSeedAllocationsBounded, a
// warm build of the reduced model allocates nothing. Every row streams into
// the pooled model's row matrix, and the objective and the preservation
// marks use scratch pooled on the builder.
func TestBuildAllocationsBounded(t *testing.T) {
	if invariant.Enabled {
		t.Skip("checked builds allocate scratch in their invariant checks")
	}
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	w := newChurnWalk()
	ctx := context.Background()
	for range 40 {
		if _, err := w.p.Submit(ctx, w.next(t)); err != nil {
			t.Fatal(err)
		}
	}
	w.p.beginCall(plan.SubmitConfig{})
	b := w.p.newBuilder([]dsps.StreamID{w.next(t)}, false)
	run := func() {
		b.model.Reset()
		b.build()
	}
	run() // the first build sizes the model
	if n := b.model.NumVars(); n < 100 {
		t.Fatalf("the model has %d variables; the state would not exercise the builder", n)
	}
	const maxAllocs = 0
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("a warm build of %d variables allocated %v times", b.model.NumVars(), allocs)
	if allocs > maxAllocs {
		t.Fatalf("a warm build allocated %v times, want <= %d", allocs, maxAllocs)
	}
}
