package dsps_test

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/heuristic"
	"sqpr/internal/workload"
)

// TestAllocationRulesUnderPerturbation checks the properties callers rely
// on, with no second implementation as oracle: generated systems are
// filled by the heuristic planner, then perturbed by random removes, stray
// flows and host failures. After every step GarbageCollect must be
// idempotent, keep the allocation valid and leave Provides alone;
// StripFailed+PruneAcausal must leave a valid allocation that still serves
// every query AffectedQueries did not name.
func TestAllocationRulesUnderPerturbation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 6, CPUPerHost: 12, OutBW: 200, InBW: 200, LinkCap: 100})
		cfg := workload.DefaultConfig()
		cfg.NumBaseStreams, cfg.NumQueries, cfg.Arities, cfg.Seed = 24, 24, []int{2, 3}, seed
		w := workload.Generate(sys, cfg)
		p := heuristic.New(sys, core.PaperWeights())
		for _, q := range w.Queries {
			if _, err := p.Submit(context.Background(), q); err != nil {
				t.Fatalf("seed %d: Submit(%d): %v", seed, q, err)
			}
		}
		a := p.Assignment().Clone()
		if len(a.Provides) < 8 {
			t.Fatalf("seed %d: only %d queries admitted; the test would be vacuous", seed, len(a.Provides))
		}
		rng := rand.New(rand.NewSource(seed))

		// settle applies mutate and checks the result is valid.
		settle := func(step string, mutate func()) {
			t.Helper()
			mutate()
			if err := a.Validate(sys); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
		}
		collect := func(step string) {
			t.Helper()
			provides := slices.Clone(a.Provides)
			settle(step, func() { a.GarbageCollect(sys) })
			if !slices.Equal(a.Provides, provides) {
				t.Fatalf("seed %d, %s: GarbageCollect changed Provides", seed, step)
			}
			once := a.Clone()
			a.GarbageCollect(sys)
			if !reflect.DeepEqual(a, once) {
				t.Fatalf("seed %d, %s: GarbageCollect is not idempotent", seed, step)
			}
		}

		for step := 0; step < 24 && len(a.Provides) > 0; step++ {
			up := slices.DeleteFunc(hostIDs(sys), func(h dsps.HostID) bool { return !sys.HostUsable(h) })
			switch {
			case step%6 == 5 && len(up) > 2: // a host fails
				down := up[rng.Intn(len(up))]
				sys.SetHostState(down, dsps.HostDown)
				affected := a.AffectedQueries(sys, func(h dsps.HostID) bool { return h == down })
				provides := slices.Clone(a.Provides)
				settle("strip+prune", func() {
					a.StripFailed(sys)
					a.PruneAcausal(sys)
				})
				for _, p := range provides {
					if got, ok := a.Provider(p.Stream); !slices.Contains(affected, p.Stream) && (!ok || got != p.Host) {
						t.Fatalf("seed %d: query %d not named by AffectedQueries(host %d) lost its provide", seed, p.Stream, down)
					}
				}
				for _, q := range affected {
					if _, ok := a.Provider(q); ok {
						settle("demote", func() { a.DeleteProvide(q) })
					}
				}
				collect("collect after failure")
			case step%2 == 0: // a stray relay nothing needs
				s := w.BaseStreams[rng.Intn(len(w.BaseStreams))]
				f := dsps.Flow{From: sys.BaseHosts(s)[0], To: up[rng.Intn(len(up))], Stream: s}
				if sys.HostUsable(f.From) && f.From != f.To {
					a.AddFlow(f)
				}
			default: // a query leaves
				q := a.Provides[rng.Intn(len(a.Provides))].Stream
				settle("remove", func() { a.DeleteProvide(q) })
				collect("collect after remove")
			}
		}
	}
}

func hostIDs(sys *dsps.System) []dsps.HostID {
	ids := make([]dsps.HostID, sys.NumHosts())
	for i := range ids {
		ids[i] = dsps.HostID(i)
	}
	return ids
}
