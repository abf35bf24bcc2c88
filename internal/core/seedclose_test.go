package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/milp"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// fullSolveOptions are the solver options submit hands to solve, without a
// deadline: Algorithm 1's whole submitMaxNodes budget, whatever the model.
func fullSolveOptions(p *Planner, _ *builder) milp.Options {
	return milp.Options{
		Ctx:       context.Background(),
		MaxNodes:  submitMaxNodes,
		GapTol:    submitGapTol,
		AbsGapTol: 0.02 * p.cfg.Weights.L1,
	}
}

// churnWalk is a seeded submit/remove walk over the benchmark's 15-host
// substrate (population seed 7, the daemon's planner limits) under a
// timeout no call comes near.
type churnWalk struct {
	p       *Planner
	sys     *dsps.System
	cfg     Config
	queries []dsps.StreamID
	rng     *rand.Rand
}

func newChurnWalk() *churnWalk {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 15, CPUPerHost: 10, OutBW: 60, InBW: 60, LinkCap: 25})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 150, BaseRate: 10, Zipf: 1, Arities: []int{2, 3}, NumQueries: 150,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	cfg := DefaultConfig()
	cfg.SolveTimeout = time.Minute
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	return &churnWalk{p: NewPlanner(sys, cfg), sys: sys, cfg: cfg, queries: w.Queries, rng: rand.New(rand.NewSource(23))}
}

// next removes admitted queries at random (one step in three once a third of
// the population is in) and returns the next query to submit, not yet
// admitted.
func (w *churnWalk) next(t testing.TB) dsps.StreamID {
	t.Helper()
	for {
		if adm := w.p.AdmittedQueries(); len(adm) > len(w.queries)/3 && w.rng.Intn(3) == 0 {
			if err := w.p.Remove(adm[w.rng.Intn(len(adm))]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if q := w.queries[w.rng.Intn(len(w.queries))]; !w.p.Admitted(q) {
			return q
		}
	}
}

// walkSteps is the length of the seed-close walks.
const walkSteps = 220

// walkSubmits runs the churn walk and hands every submission's result to
// check, with the walked planner and a planner cloned from it just before
// the submission.
func walkSubmits(t *testing.T, check func(step int, q dsps.StreamID, p, clone *Planner, res Result)) plan.Stats {
	t.Helper()
	w := newChurnWalk()
	for step := 0; step < walkSteps; step++ {
		q := w.next(t)
		clone := NewPlanner(w.sys, w.cfg)
		if err := clone.ImportState(w.p.ExportState()); err != nil {
			t.Fatal(err)
		}
		res, err := w.p.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		check(step, q, w.p, clone, res)
	}
	return w.p.Stats()
}

// replayFullPath submits q on p through the full path — build, solve from
// the seed with the options opts gives for the model laid out, commit —
// whatever the seed decides, and returns the solve's result with Admitted
// set by the commit.
func replayFullPath(t *testing.T, p *Planner, q dsps.StreamID, opts func(*Planner, *builder) milp.Options) Result {
	t.Helper()
	p.beginCall(plan.SubmitConfig{})
	b := p.newBuilder([]dsps.StreamID{q}, false)
	var full Result
	next, err := p.solve(context.Background(), b, b.seed(context.Background()), opts(p, b), &full)
	if err != nil || next == nil {
		t.Fatalf("query %d: full path failed: %v (%+v)", q, err, full)
	}
	full.Admitted = p.Commit(next, q)
	return full
}

// TestSeedCloseMatchesFullSolve replays every submission the seed closed
// with an admission on a planner cloned just before it, through the full
// path: the solve must stop at its root and leave a byte-identical state.
// Seed-decided rejections must carry no solver effort;
// TestSeedCloseRejectionsMatchFullSolve replays them.
func TestSeedCloseMatchesFullSolve(t *testing.T) {
	closed, rejected := 0, 0
	st := walkSubmits(t, func(step int, q dsps.StreamID, p, clone *Planner, res Result) {
		if !res.SeedClosed {
			if res.Nodes == 0 || res.ModelVars == 0 {
				t.Fatalf("step %d: neither seed-closed nor solved: %+v", step, res)
			}
			return
		}
		if res.Nodes != 0 || res.LPIters != 0 || res.ModelVars != 0 || res.BeyondSeed != 0 || res.SolveStatus != milp.FeasibleMIP {
			t.Fatalf("step %d: seed-closed result carries solver effort: %+v", step, res)
		}
		if !res.Admitted {
			if res.Reason != plan.ReasonNoFeasiblePlan {
				t.Fatalf("step %d: seed-decided rejection without its reason: %+v", step, res)
			}
			rejected++
			return
		}
		closed++
		full := replayFullPath(t, clone, q, fullSolveOptions)
		if full.Nodes != 1 {
			t.Fatalf("step %d: the full path searched %d nodes where the seed closed the call", step, full.Nodes)
		}
		if !clone.ExportState().Equal(p.ExportState()) {
			t.Fatalf("step %d: fast path and full path disagree on the state after query %d", step, q)
		}
	})
	t.Logf("%d of %d submissions seed-closed with an admission, %d seed-rejected, %d rejected", closed, st.Submissions, rejected, st.Rejections)
	if closed < 150 || st.SeedClosed != closed+rejected {
		t.Fatalf("%d seed-closed submissions seen, Stats counts %d (want ≥ 150 admitted and equal)", closed+rejected, st.SeedClosed)
	}
}

// TestSeedCloseRejectionsMatchFullSolve replays every seed-decided rejection
// of the walk — a lone query the seed could not place on a model of at
// least largeModelVars variables — on a planner cloned just before it,
// through the full path with Algorithm 1's whole submitMaxNodes budget: the
// search must not admit the query either, and must leave a byte-identical
// state. The rule is a measured heuristic, not a bound, so this walk is its
// evidence.
func TestSeedCloseRejectionsMatchFullSolve(t *testing.T) {
	rejected := 0
	walkSubmits(t, func(step int, q dsps.StreamID, p, clone *Planner, res Result) {
		if !res.SeedClosed || res.Admitted {
			return
		}
		rejected++
		full := replayFullPath(t, clone, q, fullSolveOptions)
		if full.Admitted {
			t.Fatalf("step %d: the full path admits query %d in %d nodes, which the seed rejected", step, q, full.Nodes)
		}
		if full.Nodes == 0 || full.ModelVars < largeModelVars {
			t.Fatalf("step %d: the replay did not search a large model: %+v", step, full)
		}
		if !clone.ExportState().Equal(p.ExportState()) {
			t.Fatalf("step %d: seed-decided and full-path rejections of query %d disagree on the state", step, q)
		}
	})
	t.Logf("%d seed-decided rejections in %d steps, each also rejected by the full path", rejected, walkSteps)
	if rejected < 40 {
		t.Fatalf("only %d seed-decided rejections in %d steps (want ≥ 40): the walk no longer exercises the rule", rejected, walkSteps)
	}
}

// largeBatchSteps is the number of 3-query batches
// TestSeedCloseLargeBatchCommitsItsSeed submits.
const largeBatchSteps = 24

// TestSeedCloseLargeBatchCommitsItsSeed pins the seed-decided Submit on a
// joint batch: on the churn walk, every 3-query WithBatch submit whose model
// lays out at least largeModelVars variables builds no model, searches no
// node, and admits exactly the queries the greedy seed places on a planner
// cloned just before it. Each batch is also replayed on that clone through
// the full path, Algorithm 1's submitMaxNodes search from the seed, which
// must admit no more.
func TestSeedCloseLargeBatchCommitsItsSeed(t *testing.T) {
	w := newChurnWalk()
	ctx := context.Background()
	large, seedAdmits, minVars, maxVars := 0, 0, math.MaxInt, 0
	for step := 0; step < largeBatchSteps; step++ {
		var batch []dsps.StreamID
		for len(batch) < 3 {
			if q := w.next(t); !slices.Contains(batch, q) {
				batch = append(batch, q)
			}
		}
		clone := NewPlanner(w.sys, w.cfg)
		if err := clone.ImportState(w.p.ExportState()); err != nil {
			t.Fatal(err)
		}
		clone.beginCall(plan.SubmitConfig{})
		b := clone.newBuilder(batch, false)
		seed := b.seed(ctx)

		res, err := w.p.Submit(ctx, batch[0], plan.WithBatch(batch[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		if b.numVars() < largeModelVars {
			continue
		}
		large++
		minVars, maxVars = min(minVars, b.numVars()), max(maxVars, b.numVars())
		if res.ModelVars != 0 || res.Nodes != 0 || !res.SeedClosed {
			t.Fatalf("step %d: a %d-variable batch was not decided by its seed: %+v", step, b.numVars(), res)
		}
		placed := 0
		for _, q := range batch {
			_, seeded := seed.Provider(q)
			if w.p.Admitted(q) != seeded {
				t.Fatalf("step %d: query %d admitted %v, placed by the seed %v", step, q, w.p.Admitted(q), seeded)
			}
			if seeded {
				placed++
			}
		}
		seedAdmits += placed

		var full Result
		next, err := clone.solve(ctx, b, seed, fullSolveOptions(clone, b), &full)
		if err != nil {
			t.Fatalf("step %d: full path failed: %v (%+v)", step, err, full)
		}
		if next != nil {
			clone.Commit(next, batch...)
		}
		searched := 0
		for _, q := range batch {
			if clone.Admitted(q) {
				searched++
			}
		}
		if searched > placed {
			t.Fatalf("step %d: the %d-node search admits %d of batch %v, the seed %d", step, full.Nodes, searched, batch, placed)
		}
	}
	t.Logf("%d of %d batches on models of %d–%d variables, %d queries admitted by their seeds, none beyond them by the full path",
		large, largeBatchSteps, minVars, maxVars, seedAdmits)
	if large < largeBatchSteps*3/4 {
		t.Fatalf("only %d of %d batches on models of %d or more variables: the walk no longer exercises the rule", large, largeBatchSteps, largeModelVars)
	}
}

// TestSeedCloseSmallModelsKeepTheirSearch pins the models below
// largeModelVars whose search the seed-decided rejection must leave alone:
// a lone query the seed cannot place, on a layout under the line, searches.
// Fig. 2's q1 and the relay query are admitted by that search and by
// nothing else, so each counts one admission beyond the seed.
func TestSeedCloseSmallModelsKeepTheirSearch(t *testing.T) {
	fig2Planner := func(t *testing.T) (*Planner, dsps.StreamID) {
		sys, _, q1, _ := fig2System(t)
		cfg := DefaultConfig()
		cfg.SolveTimeout = 2 * time.Second
		return NewPlanner(sys, cfg), q1
	}
	relayPlanner := func(t *testing.T) (*Planner, dsps.StreamID) {
		sys, q := relayScenario(t)
		cfg := DefaultConfig()
		cfg.SolveTimeout = 3 * time.Second
		return NewPlanner(sys, cfg), q
	}
	nestedPlanner := func(t *testing.T) (*Planner, dsps.StreamID) {
		sys, ab, _, _ := nestedSystem(t, 0.5)
		return NewPlanner(sys, testConfig()), ab
	}
	for _, tc := range []struct {
		name  string
		setup func(*testing.T) (*Planner, dsps.StreamID)
		admit bool
	}{
		{"Fig. 2 q1", fig2Planner, true},
		{"relay", relayPlanner, true},
		{"nested ab without CPU", nestedPlanner, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, q := tc.setup(t)
			res := mustSubmit(t, p, q)
			if res.ModelVars >= largeModelVars || res.Nodes == 0 {
				t.Fatalf("want a search on fewer than %d variables: %+v", largeModelVars, res)
			}
			if res.Admitted != tc.admit {
				t.Fatalf("Admitted = %v, want %v: %+v", res.Admitted, tc.admit, res)
			}
			want := 0
			if tc.admit {
				want = 1
			}
			if res.BeyondSeed != want || p.Stats().BeyondSeed != want {
				t.Fatalf("BeyondSeed = %d (Stats %d), want %d: %+v", res.BeyondSeed, p.Stats().BeyondSeed, want, res)
			}
			t.Logf("%d variables, %d nodes", res.ModelVars, res.Nodes)
		})
	}
}

// nestedSystem has a requested join ab = a⋈b feeding a second requested
// join abc = ab⋈c, and a third query ac = a⋈c sharing base stream a; all
// base streams sit on host 0 and every host could run everything.
func nestedSystem(t *testing.T, cpu float64) (sys *dsps.System, ab, abc, ac dsps.StreamID) {
	t.Helper()
	hosts := make([]dsps.Host, 3)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: cpu, OutBW: 100, InBW: 100}
	}
	sys = dsps.NewSystem(hosts, 100)
	a := sys.AddStream(5, dsps.NoOperator, "a")
	b := sys.AddStream(5, dsps.NoOperator, "b")
	c := sys.AddStream(5, dsps.NoOperator, "c")
	for _, s := range []dsps.StreamID{a, b, c} {
		sys.PlaceBase(0, s)
	}
	ab = sys.AddOperator([]dsps.StreamID{a, b}, 1, 1, "a⋈b").Output
	abc = sys.AddOperator([]dsps.StreamID{ab, c}, 1, 1, "ab⋈c").Output
	ac = sys.AddOperator([]dsps.StreamID{a, c}, 1, 1, "a⋈c").Output
	for _, s := range []dsps.StreamID{ab, abc, ac} {
		sys.SetRequested(s, true)
	}
	if err := sys.Validate(); err != nil {
		t.Fatalf("system invalid: %v", err)
	}
	return sys, ab, abc, ac
}

// mustSubmit submits q (with batch companions) and checks that the call
// searched: every caller plans a model below largeModelVars.
func mustSubmit(t *testing.T, p *Planner, q dsps.StreamID, batch ...dsps.StreamID) Result {
	t.Helper()
	res, err := p.Submit(context.Background(), q, plan.WithBatch(batch...))
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedClosed || res.ModelVars == 0 || res.Nodes == 0 {
		t.Fatalf("Submit(%d, batch %v): want a search, got %+v", q, batch, res)
	}
	if err := p.Assignment().Validate(p.sys); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSeedCloseIgnoresUnsubmittedQueries: abc's closure frees ab, requested
// and never submitted. ab gets no provide variables, so the search serving
// abc leaves ab alone, and ab's own submit later admits it beside abc.
func TestSeedCloseIgnoresUnsubmittedQueries(t *testing.T) {
	sys, ab, abc, _ := nestedSystem(t, 10)
	p := NewPlanner(sys, testConfig())
	if res := mustSubmit(t, p, abc); !res.Admitted {
		t.Fatalf("abc rejected: %+v", res)
	}
	if _, ok := p.Assignment().Provider(ab); ok || p.Admitted(ab) {
		t.Fatalf("abc's submit touched ab: provided %v, admitted %v", ok, p.Admitted(ab))
	}
	if res := mustSubmit(t, p, ab); !res.Admitted || p.AdmittedCount() != 2 {
		t.Fatalf("ab not admitted beside abc: %+v", res)
	}
}

// TestSolveProvidesOnlyWhatItAdmits runs abc's full solve with a node budget
// deep enough to find every provide the model allows, and commits it: ab,
// swept into the free set by abc's closure but never submitted, must come
// out neither provided nor admitted. A provide the ledger does not count as
// admitted would hold out-bandwidth that no Remove could release.
func TestSolveProvidesOnlyWhatItAdmits(t *testing.T) {
	sys, ab, abc, _ := nestedSystem(t, 10)
	p := NewPlanner(sys, testConfig())
	p.beginCall(plan.SubmitConfig{})
	qs := []dsps.StreamID{abc}
	b := p.newBuilder(qs, false)
	opts := fullSolveOptions(p, b)
	opts.MaxNodes = 5000
	var res Result
	next, err := p.solve(context.Background(), b, b.seed(context.Background()), opts, &res)
	if err != nil || next == nil {
		t.Fatalf("full solve failed: %v (%+v)", err, res)
	}
	if !p.Commit(next, qs...) {
		t.Fatalf("abc not admitted: %+v", res)
	}
	if h, ok := p.Assignment().Provider(ab); ok || p.Admitted(ab) {
		t.Fatalf("after %d nodes ab is provided at host %d (ok=%v), admitted %v", res.Nodes, h, ok, p.Admitted(ab))
	}
	if err := p.Remove(abc); err != nil {
		t.Fatal(err)
	}
	if st := p.Assignment(); len(st.Provides)+len(st.Ops)+len(st.Flows) != 0 {
		t.Fatalf("removing the only admitted query left %+v", st)
	}
}

// TestSeedCloseMustNotFire pins small-model submissions the seed must not
// decide, however well it does: each one searches.
func TestSeedCloseMustNotFire(t *testing.T) {
	t.Run("query the seed cannot place", func(t *testing.T) {
		sys, ab, _, _ := nestedSystem(t, 0.5) // no host can run a cost-1 join
		p := NewPlanner(sys, testConfig())
		if res := mustSubmit(t, p, ab); res.Admitted {
			t.Fatalf("ab admitted without CPU: %+v", res)
		}
	})
	t.Run("provider on a draining host", func(t *testing.T) {
		for _, drain := range []bool{false, true} {
			sys, ab, _, ac := nestedSystem(t, 10)
			p := NewPlanner(sys, testConfig())
			mustSubmit(t, p, ab)
			if drain {
				// ac shares base stream a, so ab is freed with it; leaving ab's
				// provider on the draining host forfeits migrationWeight.
				h, _ := p.Assignment().Provider(ab)
				sys.SetHostState(h, dsps.HostDraining)
			}
			if res := mustSubmit(t, p, ac); !res.Admitted || !p.Admitted(ab) {
				t.Fatalf("drain=%v: ac or ab lost: %+v", drain, res)
			}
		}
	})
	t.Run("resource terms above the tolerance", func(t *testing.T) {
		sys, ab, _, _ := nestedSystem(t, 10)
		cfg := testConfig()
		cfg.Weights = Weights{L1: 1, L2: 1, L3: 1, L4: 1}
		if res := mustSubmit(t, NewPlanner(sys, cfg), ab); !res.Admitted {
			t.Fatalf("ab rejected under flat weights: %+v", res)
		}
	})
}

// TestSeedCloseJointBatch: a WithBatch submit on a small model searches,
// whether or not its seed serves every query of the batch.
func TestSeedCloseJointBatch(t *testing.T) {
	sys, ab, _, ac := nestedSystem(t, 10)
	p := NewPlanner(sys, testConfig())
	if res := mustSubmit(t, p, ab, ac); !res.Admitted || p.AdmittedCount() != 2 {
		t.Fatalf("ample batch not fully admitted: %+v", res)
	}
	if st := p.Stats(); st.Submissions != 1 || st.SeedClosed != 0 {
		t.Fatalf("stats after one searched batch: %+v", st)
	}

	// One host with CPU for a single join: the seed serves ab and leaves ac.
	sys, ab, _, ac = nestedSystem(t, 0.5)
	sys.Hosts[0].CPU = 1
	p = NewPlanner(sys, testConfig())
	if res := mustSubmit(t, p, ab, ac); res.Admitted || p.AdmittedCount() != 1 {
		t.Fatalf("tight batch: want exactly one of two admitted, got %d (%+v)", p.AdmittedCount(), res)
	}
}
