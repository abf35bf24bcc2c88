package sim

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/stats"
)

// OpenLoopScale parameterises the open-loop arrival experiment: Poisson
// query arrivals at increasing rates are pushed through the admission path
// by a pool of concurrent submitters through a plan.Service.
type OpenLoopScale struct {
	Scale
	// Rates lists offered loads in queries/second. The arrival generator
	// does not wait for admissions — arrivals queue up for the submitter
	// pool — so outstanding requests are bounded by Submitters, not by the
	// offered rate. For backpressure (ErrQueueFull shedding) to be
	// observable, QueueDepth must therefore be smaller than Submitters, as
	// in DefaultOpenLoopScale; requests shed at the queue are lost (the
	// client gives up), which is what the Shed column counts.
	Rates []float64
	// Submitters is the number of concurrent client goroutines.
	Submitters int
	// QueueDepth bounds the queue of the service under test (0 = default).
	QueueDepth int
}

// DefaultOpenLoopScale exercises the Fig-4 workload under increasing
// offered load with 64 concurrent submitters.
func DefaultOpenLoopScale() OpenLoopScale {
	sc := DefaultScale()
	// Per-solve budget low enough that the offered rates straddle the
	// planner's capacity, so queueing and shedding are visible.
	sc.Timeout = 40 * time.Millisecond
	return OpenLoopScale{
		Scale:      sc,
		Rates:      []float64{20, 50, 100, 200},
		Submitters: 64,
		QueueDepth: 48, // < Submitters, so overload sheds instead of parking
	}
}

// OpenLoopPoint is the measurement at one offered rate.
type OpenLoopPoint struct {
	// Rate is the offered load in queries/second.
	Rate float64
	// Submitted counts arrivals; Admitted of those were admitted, Shed were
	// rejected with ErrQueueFull before planning.
	Submitted, Admitted, Shed int
	// Errors counts submissions that failed with a non-queue-full error;
	// their latencies stay in the distribution (the caller waited), but
	// they are reported separately so solver failures cannot hide inside
	// the rejection count.
	Errors int
	// Throughput is planned (non-shed) submissions per second of wall time.
	Throughput float64
	// P50, P95, P99 and Max summarise per-request latency (arrival to
	// admission verdict, including queueing).
	P50, P95, P99, Max time.Duration
}

// OpenLoopResult is the series across rates.
type OpenLoopResult struct {
	Points []OpenLoopPoint
}

// OpenLoop runs the open-loop arrival experiment: for each offered rate it
// replays the same generated workload as a Poisson arrival process against
// a fresh service and reports throughput, shedding and latency percentiles.
// Cancelling ctx stops the arrival generator; the submitter pool drains the
// queries already queued (a graceful drain, not an abort), and the partial
// series collected so far is returned.
func OpenLoop(ctx context.Context, sc OpenLoopScale) OpenLoopResult {
	if sc.Submitters <= 0 {
		sc.Submitters = 64
	}
	var res OpenLoopResult
	for _, rate := range sc.Rates {
		if ctx.Err() != nil {
			break
		}
		res.Points = append(res.Points, runOpenLoop(ctx, sc, rate))
	}
	return res
}

func runOpenLoop(ctx context.Context, sc OpenLoopScale, rate float64) OpenLoopPoint {
	env := BuildEnv(sc.Scale)
	svc := plan.NewService(env.NewSQPR(sc.Scale, sc.Timeout), plan.ServiceConfig{QueueDepth: sc.QueueDepth})
	defer svc.Close()

	// The arrival process: one generator goroutine hands queries to the
	// submitter pool with exponential inter-arrival gaps (Poisson arrivals
	// at the offered rate). The buffer depth of arrivals makes the loop
	// open: the generator never waits for the planner. Each arrival is
	// timestamped at generation, so latency includes the time spent waiting
	// for a free submitter — without it, overload latency would be
	// systematically understated (coordinated omission).
	type arrival struct {
		q    dsps.StreamID
		born time.Time
	}
	arrivals := make(chan arrival, len(env.Queries))
	// Arrival jitter uses a private generator seeded from the experiment
	// config (xor-tagged against the workload stream); the global math/rand
	// state is never used, so a run is reproducible from its seed.
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x0a71))
	generated := make(chan int, 1)
	go func() {
		defer close(arrivals)
		n := 0
		for _, q := range env.Queries {
			if ctx.Err() != nil {
				break // stop offering load; the pool drains what's queued
			}
			arrivals <- arrival{q: q, born: time.Now()}
			n++
			time.Sleep(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		}
		generated <- n
	}()

	var (
		mu        sync.Mutex
		latencies []float64
		admitted  int
		shed      int
		errCount  int
	)
	// Queued arrivals are drained even after ctx is cancelled (graceful
	// shutdown finishes accepted work), so the submissions themselves run
	// under a background context rather than the cancellable one.
	//sqpr:ctxroot graceful drain outlives the run's cancellation
	submitCtx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < sc.Submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range arrivals {
				r, err := svc.Submit(submitCtx, a.q)
				lat := time.Since(a.born)
				mu.Lock()
				if err != nil && isQueueFull(err) {
					// Shed requests fail in microseconds and never reach the
					// planner; folding them into the latency distribution
					// would let backpressure masquerade as low latency. They
					// are counted in their own column instead.
					shed++
				} else {
					latencies = append(latencies, lat.Seconds())
					if err != nil {
						errCount++
					} else if r.Admitted {
						admitted++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	offered := <-generated

	pt := OpenLoopPoint{
		Rate:      rate,
		Submitted: offered, Admitted: admitted, Shed: shed,
		Errors: errCount,
	}
	if elapsed > 0 {
		// Shed requests never reached the planner; counting them would
		// credit backpressure as throughput, so the numerator is planned
		// submissions only.
		pt.Throughput = float64(offered-shed) / elapsed.Seconds()
	}
	cdf := stats.NewCDF(latencies)
	pt.P50 = secs(cdf.Quantile(0.50))
	pt.P95 = secs(cdf.Quantile(0.95))
	pt.P99 = secs(cdf.Quantile(0.99))
	pt.Max = secs(cdf.Quantile(1))
	return pt
}

func isQueueFull(err error) bool {
	return errors.Is(err, plan.ErrQueueFull)
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
