package core

import (
	"context"
	"errors"
	"runtime/debug"
	"slices"
	"testing"

	"sqpr/internal/dsps"
	"sqpr/internal/invariant"
	"sqpr/internal/plan"
)

// TestSeedAllocationsBounded: on a fixed S15-shaped state, a warm greedy
// seed of the live allocation, as Submit runs it, allocates nothing.
// Ranking hosts, probing trial flows and placements, rolling them back and
// accepting the winner all run on scratch pooled on the builder, and the
// seed extends the allocation in place.
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
	flows := len(w.p.Assignment().Flows)
	// Each run seeds from the ledger newBuilder left, then rolls the
	// seed back, as a Submit that does not commit it does.
	placed := false
	run := func() {
		b.trial.Usage.Reset(b.sys, w.p.Assignment())
		seed := b.seedOn(ctx, w.p.Assignment())
		_, ok := seed.Provider(q)
		placed = ok && len(seed.Flows) > flows
		b.trial.Rollback(0)
	}
	run() // the first run sizes the builder's scratch
	if !placed {
		t.Fatalf("the seed did not admit query %d over new flows; the state would not exercise the greedy", q)
	}
	const maxAllocs = 0
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

// cancelOnPoll is a context that is cancelled the moment it is polled: Err
// reports context.Canceled once Done has been called, and nil before. A
// call that never looks at Done cannot see the cancellation.
type cancelOnPoll struct {
	context.Context
	polled bool
}

func (c *cancelOnPoll) Done() <-chan struct{} {
	c.polled = true
	return c.Context.Done()
}

func (c *cancelOnPoll) Err() error {
	if c.polled {
		return context.Canceled
	}
	return nil
}

// TestSeedHonoursCancellation: the greedy seed polls ctx, and a call whose
// ctx is cancelled while its seed runs commits nothing. On the churn walk a
// seed-decided Submit and a failure Repair chunk poll Done nowhere but in
// the seed, and each would commit what its seed placed (checked on a clone
// under a live ctx); under cancelOnPoll the Submit must return
// context.Canceled with the state unchanged, and the Repair must re-place
// none of the queries the failure took.
func TestSeedHonoursCancellation(t *testing.T) {
	w := newChurnWalk()
	bg := context.Background()
	for range 40 {
		if _, err := w.p.Submit(bg, w.next(t)); err != nil {
			t.Fatal(err)
		}
	}
	clone := func() *Planner {
		c := NewPlanner(w.sys, w.cfg)
		if err := c.ImportState(w.p.ExportState()); err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("submit", func(t *testing.T) {
		q := w.next(t)
		if res, err := clone().Submit(bg, q); err != nil || !res.Admitted || !res.SeedClosed {
			t.Fatalf("under a live ctx query %d is not admitted by its seed: %v (%+v)", q, err, res)
		}
		p := clone()
		before := p.ExportState()
		ctx := &cancelOnPoll{Context: bg}
		res, err := p.Submit(ctx, q)
		if !errors.Is(err, context.Canceled) || !ctx.polled {
			t.Fatalf("Submit under a ctx cancelled by its first poll: err = %v, polled %v (%+v)", err, ctx.polled, res)
		}
		if !p.ExportState().Equal(before) {
			t.Fatal("a cancelled Submit changed the state")
		}
	})

	t.Run("repair", func(t *testing.T) {
		h := w.p.Assignment().Ops[0].Host
		defer w.sys.SetHostState(h, dsps.HostUp)
		fail := []plan.Event{plan.FailHost(h)}
		live, err := clone().Repair(bg, fail)
		if err != nil || len(live.Kept) == 0 {
			t.Fatalf("under a live ctx the failure of host %d keeps nothing: %v (%+v)", h, err, live)
		}
		w.sys.SetHostState(h, dsps.HostUp)
		ctx := &cancelOnPoll{Context: bg}
		rr, err := clone().Repair(ctx, fail)
		if !errors.Is(err, context.Canceled) || !ctx.polled {
			t.Fatalf("Repair under a ctx cancelled by its first poll: err = %v, polled %v (%+v)", err, ctx.polled, rr)
		}
		if len(rr.Kept) != 0 {
			t.Fatalf("a cancelled Repair re-placed %v (live: %v)", rr.Kept, live.Kept)
		}
	})
}
