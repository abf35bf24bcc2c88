package sim

import (
	"context"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/engine"
	"sqpr/internal/stats"
)

// DeployScale configures the Fig. 7 cluster-deployment study (the paper
// used 15 Emulab hosts, a 10 Mbps LAN, 300 base streams and waves of 50
// queries of 2- and 3-way joins).
type DeployScale struct {
	Hosts       int
	CPUPerHost  float64
	OutBW       float64
	InBW        float64
	LinkCap     float64
	BaseStreams int
	BaseRate    float64
	WaveSize    int
	Waves       int
	Timeout     time.Duration
	Seed        int64
}

// DefaultDeployScale mirrors §V-B at reduced scale.
func DefaultDeployScale() DeployScale {
	return DeployScale{
		Hosts:       15,
		CPUPerHost:  10, // "up to 15 2- and 3-way joins" at γ≈0.7/join
		OutBW:       60,
		InBW:        60,
		LinkCap:     25,
		BaseStreams: 150,
		BaseRate:    10,
		WaveSize:    50,
		Waves:       5,
		Timeout:     150 * time.Millisecond,
		Seed:        7,
	}
}

// Fig7Result holds all three deployment plots: per-wave admissions for
// SQPR and SODA (7a) and utilisation CDFs at the low and high checkpoints
// (7b: CPU %, 7c: network usage).
type Fig7Result struct {
	Inputs []int
	SQPR   []int
	SODA   []int
	// SQPRErrors and SODAErrors count submissions that failed with an
	// error rather than a clean rejection; a nonzero count means the
	// admission columns undercount attempted queries.
	SQPRErrors, SODAErrors int

	// Checkpoints for the CDFs (input-query counts, e.g. 50 and 150).
	LowCheckpoint, HighCheckpoint int
	CPULowSQPR, CPUHighSQPR       *stats.CDF
	CPULowSODA, CPUHighSODA       *stats.CDF
	NetLowSQPR, NetHighSQPR       *stats.CDF
	NetLowSODA, NetHighSODA       *stats.CDF
}

// Fig7 runs the deployment comparison of SQPR vs SODA over waves of
// queries, capturing admission counts per wave and utilisation CDFs at the
// checkpoints. Cancelling ctx stops the run gracefully at the next wave
// boundary; the waves completed so far remain in the result.
func Fig7(ctx context.Context, ds DeployScale) Fig7Result {
	scale := Scale{
		Hosts:       ds.Hosts,
		CPUPerHost:  ds.CPUPerHost,
		OutBW:       ds.OutBW,
		InBW:        ds.InBW,
		LinkCap:     ds.LinkCap,
		BaseStreams: ds.BaseStreams,
		BaseRate:    ds.BaseRate,
		Queries:     ds.WaveSize * ds.Waves,
		Zipf:        1,
		Arities:     []int{2, 3},
		Timeout:     ds.Timeout,
		MaxCandHost: 8,
		Seed:        ds.Seed,
	}

	envS := BuildEnv(scale)
	sqpr := envS.NewSQPR(scale, ds.Timeout)
	envD := BuildEnv(scale)
	soda := envD.NewSODA()

	res := Fig7Result{
		LowCheckpoint:  ds.WaveSize,
		HighCheckpoint: 3 * ds.WaveSize,
	}
	if ds.Waves < 3 {
		res.HighCheckpoint = ds.Waves * ds.WaveSize
	}

	sqprSatisfied, sodaSatisfied := 0, 0
	for wave := 0; wave < ds.Waves; wave++ {
		if ctx.Err() != nil {
			break
		}
		lo, hi := wave*ds.WaveSize, (wave+1)*ds.WaveSize
		for _, q := range envS.Queries[lo:hi] {
			r, err := sqpr.Submit(ctx, q)
			switch {
			case err != nil && ctx.Err() != nil:
				// Cancellation aborted the solve: stop, don't count it as
				// a solver failure.
			case err != nil:
				res.SQPRErrors++
			case r.Admitted:
				sqprSatisfied++
			}
			if ctx.Err() != nil {
				break
			}
		}
		for _, q := range envD.Queries[lo:hi] {
			if ctx.Err() != nil {
				break
			}
			r, err := soda.Submit(ctx, q)
			switch {
			case err != nil && ctx.Err() != nil:
			case err != nil:
				res.SODAErrors++
			case r.Admitted:
				sodaSatisfied++
			}
		}
		res.Inputs = append(res.Inputs, hi)
		res.SQPR = append(res.SQPR, sqprSatisfied)
		res.SODA = append(res.SODA, sodaSatisfied)

		if hi == res.LowCheckpoint {
			res.CPULowSQPR, res.NetLowSQPR = UtilisationCDFs(envS.Sys, sqpr.Assignment())
			res.CPULowSODA, res.NetLowSODA = UtilisationCDFs(envD.Sys, soda.Assignment())
		}
		if hi == res.HighCheckpoint {
			res.CPUHighSQPR, res.NetHighSQPR = UtilisationCDFs(envS.Sys, sqpr.Assignment())
			res.CPUHighSODA, res.NetHighSODA = UtilisationCDFs(envD.Sys, soda.Assignment())
		}
	}
	return res
}

// DeployAndMeasure runs an assignment on the mini engine for d of
// simulated time and returns what the engine measured. This is the
// "real deployment" leg of the Fig. 7 study: planners decide, the engine
// executes.
func DeployAndMeasure(sys *dsps.System, a *dsps.Assignment, d time.Duration) (engine.Report, error) {
	return engine.Run(sys, a, d.Seconds())
}
