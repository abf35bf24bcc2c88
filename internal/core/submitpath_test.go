package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// largeStateWalk is the benchmark's large_state fixture: its 32-host
// population under the daemon's planner limits, filled to 300 admitted
// queries in population order. It returns the planner and the population.
func largeStateWalk(t testing.TB, submit func(*Planner, dsps.StreamID)) (*Planner, []dsps.StreamID) {
	t.Helper()
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 32, CPUPerHost: 40, OutBW: 300, InBW: 300, LinkCap: 80})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 1200, BaseRate: 10, Arities: []int{2, 3}, NumQueries: 800,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Minute
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	p := NewPlanner(sys, cfg)
	var pop []dsps.StreamID
	for _, q := range w.Queries {
		if !slices.Contains(pop, q) {
			pop = append(pop, q)
		}
	}
	for _, q := range pop {
		if p.AdmittedCount() == 300 {
			break
		}
		submit(p, q)
	}
	return p, pop
}

// submitOrFail is a largeStateWalk step that only submits.
func submitOrFail(t testing.TB) func(*Planner, dsps.StreamID) {
	return func(p *Planner, q dsps.StreamID) {
		if _, err := p.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
}

// mustBeUntouched fails unless p's allocation equals before piece for
// piece, the ledger of p's trial equals a fresh sum over it bit for bit,
// and the planner's recorded delta is empty: a call that committed nothing
// left no trace.
func mustBeUntouched(t *testing.T, p *Planner, before *dsps.Assignment) {
	t.Helper()
	a := p.Assignment()
	if !slices.Equal(a.Provides, before.Provides) || !slices.Equal(a.Flows, before.Flows) || !slices.Equal(a.Ops, before.Ops) {
		t.Fatalf("the allocation changed: %d provides, %d flows, %d placements, before %d, %d, %d",
			len(a.Provides), len(a.Flows), len(a.Ops), len(before.Provides), len(before.Flows), len(before.Ops))
	}
	u, fresh := &p.bld.trial.Usage, a.ComputeUsage(p.sys)
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	ok := same(u.CPU, fresh.CPU) && same(u.Mem, fresh.Mem) && same(u.Out, fresh.Out) && same(u.In, fresh.In) &&
		same([]float64{u.Network, u.CPUSum}, []float64{fresh.Network, fresh.CPUSum}) &&
		slices.EqualFunc(u.Link, fresh.Link, same)
	if !ok {
		t.Fatal("the trial's ledger differs from a fresh sum over the allocation")
	}
	if d := p.TakeDelta(); !d.IsEmpty() {
		t.Fatalf("the recorded delta is not empty: %+v", d)
	}
}

// cancelMidSeed is a context cancelled at the first poll that finds the
// seed holding trial pieces: from then on Done is closed and Err reports
// context.Canceled.
type cancelMidSeed struct {
	context.Context
	p         *Planner
	cancelled bool
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *cancelMidSeed) Done() <-chan struct{} {
	if !c.cancelled && c.p.bld.trial.Mark() > 0 {
		c.cancelled = true
	}
	if c.cancelled {
		return closedDone
	}
	return c.Context.Done()
}

func (c *cancelMidSeed) Err() error {
	if c.cancelled {
		return context.Canceled
	}
	return nil
}

// TestRefusedSubmitLeavesAllocationUntouched: Submit seeds the live
// allocation, so every call that commits nothing must roll it back
// exactly — the allocation, the trial's ledger and the change record. The
// cases are a seed that places nothing on the S15 walk, a ctx cancelled
// while the seed holds pieces, a seed the commit check refuses, and a
// pruned seed the fallback Validate refuses (its prune deletions come back).
func TestRefusedSubmitLeavesAllocationUntouched(t *testing.T) {
	bg := context.Background()

	t.Run("seed places nothing", func(t *testing.T) {
		w := newChurnWalk()
		found := 0
		for range walkSteps {
			q := w.next(t)
			before := w.p.Assignment().Snapshot()
			w.p.TakeDelta()
			res, err := w.p.Submit(bg, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.SeedClosed && !res.Admitted {
				found++
				mustBeUntouched(t, w.p, before)
			}
		}
		if found == 0 {
			t.Fatal("no seed on the walk placed nothing; the case tests nothing")
		}
	})

	t.Run("ctx cancelled mid-seed", func(t *testing.T) {
		w := newChurnWalk()
		for range 40 {
			if _, err := w.p.Submit(bg, w.next(t)); err != nil {
				t.Fatal(err)
			}
		}
		var batch []dsps.StreamID
		for _, q := range w.queries {
			if !w.p.Admitted(q) && !slices.Contains(batch, q) && len(batch) < 8 {
				batch = append(batch, q)
			}
		}
		before := w.p.Assignment().Snapshot()
		w.p.TakeDelta()
		ctx := &cancelMidSeed{Context: bg, p: w.p}
		res, err := w.p.Submit(ctx, batch[0], plan.WithBatch(batch[1:]...))
		if !errors.Is(err, context.Canceled) || !ctx.cancelled {
			t.Fatalf("the batch was not cancelled while its seed held pieces: err = %v (%+v)", err, res)
		}
		mustBeUntouched(t, w.p, before)
	})

	// The system of TestSeedCommitFallsBackWhenPruned, with an operator
	// heavier than any host besides: x is based at host 0, and a and b
	// read it.
	fallback := func() (*dsps.System, *Planner, *dsps.Operator, *dsps.Operator, *dsps.Operator) {
		hosts := make([]dsps.Host, 6)
		for i := range hosts {
			hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 10, OutBW: 100, InBW: 100}
		}
		sys := dsps.NewSystem(hosts, 50)
		x := sys.AddStream(5, dsps.NoOperator, "x")
		sys.PlaceBase(0, x)
		fa := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "a")
		fb := sys.AddOperator([]dsps.StreamID{x}, 1, 1, "b")
		heavy := sys.AddOperator([]dsps.StreamID{x}, 1, 2*hosts[0].CPU, "heavy")
		sys.SetRequested(fa.Output, true)
		sys.SetRequested(fb.Output, true)
		return sys, NewPlanner(sys, DefaultConfig()), fa, fb, heavy
	}

	t.Run("commit check refuses", func(t *testing.T) {
		sys, p, fa, fb, heavy := fallback()
		if res, err := p.Submit(bg, fa.Output); err != nil || !res.Admitted {
			t.Fatalf("query a: %+v, %v", res, err)
		}
		before := p.Assignment().Snapshot()
		p.TakeDelta()
		// Submit's seed-decided tail, on a seed extended past host 0's CPU.
		p.beginCall(plan.SubmitConfig{})
		b := p.newBuilder([]dsps.StreamID{fb.Output}, false)
		seed := b.seedOn(bg, p.Assignment())
		if _, ok := seed.Provider(fb.Output); !ok || b.numVars() < largeModelVars {
			t.Fatal("the seed does not decide query b; the case tests nothing")
		}
		b.trial.AddOp(dsps.Placement{Host: 0, Op: heavy.ID})
		if seed.Validate(sys) == nil {
			t.Fatal("the over-budget seed validates; the case tests nothing")
		}
		var res Result
		if next, err := p.checkedSeed(b, seed, &res); next != nil || err == nil || res.Reason != plan.ReasonValidationFailed {
			t.Fatalf("the check passed %v on with error %v and reason %v", next != nil, err, res.Reason)
		}
		mustBeUntouched(t, p, before)
	})

	t.Run("pruned seed refused", func(t *testing.T) {
		sys, p, fa, fb, _ := fallback()
		x := sys.Operators[fa.ID].Inputs[0]
		a := dsps.NewAssignment()
		a.AddFlow(dsps.Flow{From: 0, To: 1, Stream: x})
		a.AddFlow(dsps.Flow{From: 1, To: 2, Stream: x})
		a.AddFlow(dsps.Flow{From: 0, To: 2, Stream: x})
		a.AddOp(dsps.Placement{Host: 2, Op: fa.ID})
		a.SetProvide(fa.Output, 2)
		if err := p.ImportState(plan.ExportedState(sys, a, []dsps.StreamID{fa.Output})); err != nil {
			t.Fatal(err)
		}
		// a's cost drifts past host 2's CPU: the seed places b elsewhere
		// and its scoped acceptance holds, but the prune deletes the relay,
		// and the full Validate the commit then falls back to refuses.
		sys.SetCost(fa.ID, 2*sys.Hosts[2].CPU)
		defer sys.SetCost(fa.ID, 1)
		before := p.Assignment().Snapshot()
		p.TakeDelta()
		res, err := p.Submit(bg, fb.Output)
		if err == nil || res.Admitted || !res.SeedClosed || res.Reason != plan.ReasonValidationFailed {
			t.Fatalf("query b: %+v, %v; want the pruned seed refused", res, err)
		}
		mustBeUntouched(t, p, before)
		if !p.Assignment().HasFlow(dsps.Flow{From: 1, To: 2, Stream: x}) {
			t.Fatal("the relayed inflow the prune deleted did not come back")
		}
	})
}

// mergedFreeSet returns the free set merge leaves for submitting q on p,
// in the order it was merged: newBuilder's steps up to the merge.
func mergedFreeSet(p *Planner, q dsps.StreamID, merge func(*builder)) []dsps.StreamID {
	p.beginCall(plan.SubmitConfig{})
	b := p.builder()
	b.queries = []dsps.StreamID{q}
	b.addFree(p.closures.streamsOf(q))
	p.indexSharers(b.queries)
	merge(b)
	return slices.Clone(b.freeStreams)
}

// TestMergeSharersMatchesScan: on every submission of the S15 churn walk
// and of the large_state replay (300 queries admitted, then a
// submit/remove churn), the indexed sharer merge frees the streams a scan
// of the whole admitted set frees, in the same order.
func TestMergeSharersMatchesScan(t *testing.T) {
	check := func(p *Planner, q dsps.StreamID, merges *int) {
		t.Helper()
		got := mergedFreeSet(p, q, (*builder).mergeSharers)
		want := mergedFreeSet(p, q, (*builder).mergeByScan)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: the indexed merge freed %v, the scan %v", q, got, want)
		}
		if len(got) > len(p.closures.streamsOf(q)) {
			*merges++
		}
	}
	t.Run("S15 churn walk", func(t *testing.T) {
		w := newChurnWalk()
		merges := 0
		for range walkSteps {
			q := w.next(t)
			check(w.p, q, &merges)
			if _, err := w.p.Submit(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		if merges == 0 {
			t.Fatal("no submission merged a sharer")
		}
	})
	t.Run("large_state", func(t *testing.T) {
		merges := 0
		submit := submitOrFail(t)
		p, pop := largeStateWalk(t, func(p *Planner, q dsps.StreamID) {
			check(p, q, &merges)
			submit(p, q)
		})
		rng := rand.New(rand.NewSource(5))
		for range 100 {
			adm := p.AdmittedQueries()
			if err := p.Remove(adm[rng.Intn(len(adm))]); err != nil {
				t.Fatal(err)
			}
			if q := pop[rng.Intn(len(pop))]; !p.Admitted(q) {
				check(p, q, &merges)
				submit(p, q)
			}
		}
		if merges == 0 {
			t.Fatal("no submission merged a sharer")
		}
	})
}

// BenchmarkSeedDecidedSubmit times the stages of a seed-decided Submit on
// a fixed state — the large_state fixture and the S15 churn walk after 120
// steps — cycling through the queries the seed decides and admits there.
// Each op lays out the call (newBuilder, its sharer merge included), seeds
// the live allocation, prunes the seed and checks it for commit, then
// rolls the trial back, so every op sees the same state. It reports µs/op
// for each stage, and for the sharer merge alone (mergeSharers, timed on a
// separate run of newBuilder's steps up to it).
func BenchmarkSeedDecidedSubmit(b *testing.B) {
	states := []struct {
		name  string
		state func(b *testing.B) *Planner
	}{
		{"large_state", func(b *testing.B) *Planner {
			p, _ := largeStateWalk(b, submitOrFail(b))
			return p
		}},
		{"S15_walk", func(b *testing.B) *Planner {
			w := newChurnWalk()
			for range 120 {
				if _, err := w.p.Submit(context.Background(), w.next(b)); err != nil {
					b.Fatal(err)
				}
			}
			return w.p
		}},
	}
	for _, st := range states {
		b.Run(st.name, func(b *testing.B) {
			p := st.state(b)
			ctx := context.Background()
			var decided []dsps.StreamID
			for s := range p.sys.Streams {
				q := dsps.StreamID(s)
				if !p.sys.Streams[q].Requested || p.Admitted(q) {
					continue
				}
				p.beginCall(plan.SubmitConfig{})
				bld := p.newBuilder([]dsps.StreamID{q}, false)
				_, placed := bld.seedOn(ctx, p.Assignment()).Provider(q)
				bld.trial.Rollback(0)
				if placed && bld.numVars() >= largeModelVars {
					decided = append(decided, q)
				}
			}
			if len(decided) == 0 {
				b.Fatal("no query is seed-decided on the state")
			}
			var layout, merge, seeding, pruning, checking time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				qs := decided[i%len(decided) : i%len(decided)+1]
				t0 := time.Now()
				mergedFreeSet(p, qs[0], (*builder).mergeSharers)
				t1 := time.Now()
				p.beginCall(plan.SubmitConfig{})
				bld := p.newBuilder(qs, false)
				t2 := time.Now()
				seed := bld.seedOn(ctx, p.Assignment())
				t3 := time.Now()
				var added *dsps.Extension
				if !bld.pruneUnused(seed) {
					added = bld.trial.Extension(0)
				}
				t4 := time.Now()
				var res Result
				if next, _ := p.validated(seed, added, &res); next == nil {
					b.Fatalf("query %d: the commit check refused its seed", qs[0])
				}
				t5 := time.Now()
				bld.trial.Rollback(0)
				merge += t1.Sub(t0)
				layout += t2.Sub(t1)
				seeding += t3.Sub(t2)
				pruning += t4.Sub(t3)
				checking += t5.Sub(t4)
			}
			us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(b.N) }
			b.ReportMetric(us(layout), "newBuilder-µs/op")
			b.ReportMetric(us(merge), "mergeSharers-µs/op")
			b.ReportMetric(us(seeding), "seed-µs/op")
			b.ReportMetric(us(pruning), "prune-µs/op")
			b.ReportMetric(us(checking), "check-µs/op")
		})
	}
}
