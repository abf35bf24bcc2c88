package plan_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/workload"
)

// largeStateSystem builds the bench's large_state cluster and population:
// 32 uniform hosts, 1,200 base streams, 800 queries.
func largeStateSystem() (*dsps.System, []dsps.StreamID) {
	sys := workload.BuildSystem(workload.SystemConfig{NumHosts: 32, CPUPerHost: 40, OutBW: 300, InBW: 300, LinkCap: 80})
	w := workload.Generate(sys, workload.Config{
		NumBaseStreams: 1200, BaseRate: 10, Arities: []int{2, 3}, NumQueries: 800,
		SelMin: 0.001, SelMax: 0.005, CostPerRate: 0.05, Seed: 7,
	})
	return sys, w.Queries
}

// largeStatePlanner is the core planner configured as the served daemon.
func largeStatePlanner(sys *dsps.System) *core.Planner {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = 150 * time.Millisecond
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	return core.NewPlanner(sys, cfg)
}

// largeState is the state large_state's rounds start from: 300 queries
// admitted by the core planner.
var largeState = sync.OnceValue(func() plan.State {
	sys, queries := largeStateSystem()
	p := largeStatePlanner(sys)
	for _, q := range queries {
		if p.AdmittedCount() == 300 {
			break
		}
		if _, err := p.Submit(context.Background(), q); err != nil {
			panic(err)
		}
	}
	return p.ExportState()
})

// BenchmarkJournalDelta times the journal's stage on the large_state
// state, one submit and one remove of a query outside the admitted set per
// op, each followed by what the durable service journals: the planner's
// recorded delta (recorded), or the whole-state export, its Diff with the
// previous export and the record's encoding (export_diff). journal-µs/op is
// that stage alone, for both journal points of the op; plan-µs/op the two
// planner calls, where the recorded path's bookkeeping runs.
func BenchmarkJournalDelta(b *testing.B) {
	for _, recorded := range []bool{true, false} {
		name := "export_diff"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			sys, queries := largeStateSystem()
			p := largeStatePlanner(sys)
			if err := p.ImportState(largeState()); err != nil {
				b.Fatal(err)
			}
			var fresh []dsps.StreamID
			for _, q := range queries {
				if !p.Admitted(q) {
					fresh = append(fresh, q)
				}
			}
			last := p.ExportState()
			if recorded {
				p.TakeDelta()
			}
			journal := func() {
				var d plan.Delta
				if recorded {
					d = p.TakeDelta()
				} else {
					cur := p.ExportState()
					d = plan.Diff(last, cur)
					last = cur
				}
				if _, err := json.Marshal(d); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			var planning, journaling time.Duration
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				q := fresh[i%len(fresh)]
				i++
				t0 := time.Now()
				if _, err := p.Submit(ctx, q); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				journal()
				t2 := time.Now()
				if p.Admitted(q) {
					if err := p.Remove(q); err != nil {
						b.Fatal(err)
					}
				}
				t3 := time.Now()
				journal()
				t4 := time.Now()
				planning += t1.Sub(t0) + t3.Sub(t2)
				journaling += t2.Sub(t1) + t4.Sub(t3)
			}
			b.ReportMetric(float64(journaling.Microseconds())/float64(b.N), "journal-µs/op")
			b.ReportMetric(float64(planning.Microseconds())/float64(b.N), "plan-µs/op")
		})
	}
}
