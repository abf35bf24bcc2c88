package sim

import (
	"context"
	"testing"
	"time"

	"sqpr/internal/core"
)

// TestSeedIgnoresTheClock plans Fig. 5c's arity-5 workload, whose greedy
// seeds are the slowest of the sqpr-sim figures (tens to hundreds of
// milliseconds each), once under a 1 ns timeout and once under a 1 min one.
// The seed stops on its probe count alone, so both runs must reach the same
// verdict on every query and the same final state.
func TestSeedIgnoresTheClock(t *testing.T) {
	sc := DefaultScale()
	sc.Arities = []int{5}
	sc.Queries = 30
	run := func(timeout time.Duration) ([]bool, *core.Planner) {
		env := BuildEnv(sc)
		p := env.NewSQPR(sc, timeout).P.(*core.Planner)
		verdicts := make([]bool, len(env.Queries))
		for i, q := range env.Queries {
			res, err := p.Submit(context.Background(), q)
			if err != nil {
				t.Fatalf("timeout %v: query %d: %v", timeout, q, err)
			}
			verdicts[i] = res.Admitted
		}
		return verdicts, p
	}
	fast, pFast := run(time.Nanosecond)
	slow, pSlow := run(time.Minute)
	t.Logf("%d of %d admitted under 1 ns, %d under 1 min; %d and %d calls seed-decided",
		pFast.AdmittedCount(), len(fast), pSlow.AdmittedCount(), pFast.Stats().SeedClosed, pSlow.Stats().SeedClosed)
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("query #%d: admitted %v under a 1 ns timeout, %v under 1 min", i, fast[i], slow[i])
		}
	}
	if !pFast.ExportState().Equal(pSlow.ExportState()) {
		t.Fatal("the final states differ between the 1 ns and the 1 min timeout")
	}
}
