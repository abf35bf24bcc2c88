package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

// ChurnScale extends the experiment scale with host-churn parameters: in
// each step a Poisson-distributed number of up hosts fail and a Poisson-
// distributed number of down hosts recover, and the planner's Repair is
// asked to keep the admitted workload alive with minimal migration.
type ChurnScale struct {
	Scale
	// FailRate is the expected host failures per churn step.
	FailRate float64
	// RecoverRate is the expected host recoveries per churn step.
	RecoverRate float64
	// Steps is the number of churn steps after the workload is planned.
	Steps int
	// MaxDown caps simultaneously down hosts, so the system never loses
	// more than a bounded fraction of its capacity at once.
	MaxDown int
}

// DefaultChurnScale is the reduced-scale churn counterpart of the paper's
// simulation setup.
func DefaultChurnScale() ChurnScale {
	return ChurnScale{
		Scale:       DefaultScale(),
		FailRate:    0.6,
		RecoverRate: 0.5,
		Steps:       20,
		MaxDown:     4,
	}
}

// ChurnResult aggregates one churn run.
type ChurnResult struct {
	// Submitted and AdmittedInitial describe the pre-churn workload.
	Submitted, AdmittedInitial int
	// Failures and Recoveries count the host events that fired.
	Failures, Recoveries int
	// RepairCalls counts Repair invocations (one per step with events).
	RepairCalls int
	// Affected counts query invalidations across all repairs; Kept of
	// those stayed admitted, Dropped lost their admission.
	Affected, Kept, Dropped int
	// Resubmitted and Readmitted track dropped queries retried after a
	// recovery and how many came back.
	Resubmitted, Readmitted int
	// Migrated counts operators repair moved between surviving hosts.
	Migrated int
	// RepairAvg and RepairMax summarise repair latency.
	RepairAvg, RepairMax time.Duration
	// FinalAdmitted and FinalDown describe the end state.
	FinalAdmitted, FinalDown int
}

// Churn runs the host-churn experiment on the SQPR planner: plan the whole
// workload, then alternate Poisson failures and recoveries for Steps steps,
// repairing after each and resubmitting dropped queries whenever capacity
// returns. Cancelling ctx ends the run gracefully at the next query or
// churn-step boundary; the partial result is still internally consistent
// and is returned without error.
func Churn(ctx context.Context, cs ChurnScale) (ChurnResult, error) {
	var res ChurnResult
	env := BuildEnv(cs.Scale)
	rec := env.NewSQPR(cs.Scale, cs.Timeout)
	for _, q := range env.Queries {
		if ctx.Err() != nil {
			break
		}
		if _, err := rec.Submit(ctx, q); err != nil {
			if ctx.Err() != nil {
				break // cancellation aborted the solve: graceful stop
			}
			return res, err
		}
	}
	res.Submitted = len(env.Queries)
	res.AdmittedInitial = rec.AdmittedCount()

	// Churn draws from a private generator seeded from the experiment
	// config (xor-tagged so it cannot collide with the workload stream of
	// the same seed). No code in this module touches the global math/rand
	// state: runs are reproducible from Scale.Seed alone and concurrent
	// experiments cannot perturb each other.
	rng := rand.New(rand.NewSource(cs.Seed ^ 0x5ee1))
	dropped := make(map[dsps.StreamID]bool)
	for step := 0; step < cs.Steps; step++ {
		if ctx.Err() != nil {
			break
		}
		var events []plan.Event
		recovering := false

		down := env.Sys.DownHosts()
		for i := 0; i < poisson(rng, cs.RecoverRate) && len(down) > 0; i++ {
			pick := rng.Intn(len(down))
			events = append(events, plan.RecoverHost(down[pick]))
			down = append(down[:pick], down[pick+1:]...)
			res.Recoveries++
			recovering = true
		}
		var up []dsps.HostID
		for h := 0; h < env.Sys.NumHosts(); h++ {
			if env.Sys.Hosts[h].State == dsps.HostUp {
				up = append(up, dsps.HostID(h))
			}
		}
		budget := cs.MaxDown - len(down)
		for i := 0; i < poisson(rng, cs.FailRate) && len(up) > 0 && budget > 0; i++ {
			pick := rng.Intn(len(up))
			events = append(events, plan.FailHost(up[pick]))
			up = append(up[:pick], up[pick+1:]...)
			res.Failures++
			budget--
		}
		if len(events) == 0 {
			continue
		}
		if ctx.Err() != nil {
			break
		}

		rr, err := rec.Repair(ctx, events)
		if err != nil {
			if ctx.Err() != nil {
				break // cancellation aborted the repair: graceful stop
			}
			return res, fmt.Errorf("sim: churn step %d repair: %w", step, err)
		}
		res.RepairCalls++
		res.Affected += len(rr.Affected)
		res.Kept += len(rr.Kept)
		res.Dropped += len(rr.Dropped)
		res.Migrated += rr.Migrated
		for _, q := range rr.Dropped {
			dropped[q] = true
		}

		// Capacity came back: give the dropped queries another chance —
		// recovering queries are planned against the operators already
		// running, exactly like fresh submissions (§IV).
		if recovering && len(dropped) > 0 {
			var retry []dsps.StreamID
			for q := range dropped {
				retry = append(retry, q)
			}
			slices.Sort(retry)
			for _, q := range retry {
				if ctx.Err() != nil {
					break
				}
				r, err := rec.Submit(ctx, q)
				if err != nil {
					if ctx.Err() != nil {
						break // cancellation aborted the solve: graceful stop
					}
					return res, fmt.Errorf("sim: churn resubmit %d: %w", q, err)
				}
				res.Resubmitted++
				if r.Admitted {
					res.Readmitted++
					delete(dropped, q)
				}
			}
		}
	}

	if err := rec.Assignment().Validate(env.Sys); err != nil {
		return res, fmt.Errorf("sim: churn left infeasible state: %w", err)
	}
	res.FinalAdmitted = rec.AdmittedCount()
	res.FinalDown = len(env.Sys.DownHosts())
	var sum time.Duration
	for _, d := range rec.RepairTimes {
		sum += d
		if d > res.RepairMax {
			res.RepairMax = d
		}
	}
	if len(rec.RepairTimes) > 0 {
		res.RepairAvg = sum / time.Duration(len(rec.RepairTimes))
	}
	return res, nil
}

// poisson draws from a Poisson distribution via Knuth's method (the rates
// used here are well below 30, where the method is exact and fast).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	//sqpr:noctx bounded: returns once p decays below l or k reaches 50
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k >= 50 {
			return k
		}
	}
}
