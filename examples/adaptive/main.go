// Adaptive: demonstrates §IV-B adaptive query planning. After initial
// placement, the observed cost of an operator drifts far above the cost
// model's estimate (e.g. a data-rate surge). The planner detects the
// drifted queries, conceptually removes them, and re-plans them with the
// corrected costs — migrating operators to hosts that can still carry them.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sqpr"
)

func main() {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts:   5,
		CPUPerHost: 8,
		OutBW:      80,
		InBW:       80,
		LinkCap:    40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 24
	wcfg.NumQueries = 10
	wcfg.Arities = []int{2, 3}
	wcfg.Seed = 5
	w := sqpr.GenerateWorkload(sys, wcfg)

	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 300 * time.Millisecond
	planner := sqpr.NewPlanner(sys, cfg)

	ctx := context.Background()
	for _, q := range w.Queries {
		if _, err := planner.Submit(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("initially admitted %d/%d queries\n", planner.AdmittedCount(), len(w.Queries))

	before := planner.Assignment().ComputeUsage(sys)
	fmt.Printf("max per-host CPU before drift: %.2f\n", before.MaxCPU())

	// Simulate monitoring feedback: one heavily shared operator now costs
	// 2.5x its estimate (the resource monitor of Fig. 3 reports this).
	var drifted sqpr.OperatorID = -1
	if ops := planner.Assignment().Ops; len(ops) > 0 {
		drifted = ops[0].Op
	}
	if drifted < 0 {
		log.Fatal("no operators placed")
	}
	observed := map[sqpr.OperatorID]float64{
		drifted: sys.Operators[drifted].Cost * 2.5,
	}
	affected := planner.DriftedQueries(observed, 0.2)
	fmt.Printf("operator %d drifted 2.5x; %d queries affected\n", drifted, len(affected))

	// Update the cost model to the observed value and re-plan the affected
	// queries (remove + re-add, as §IV-B prescribes).
	sys.Operators[drifted].Cost = observed[drifted]
	results, err := planner.Replan(ctx, affected)
	if err != nil {
		log.Fatal(err)
	}
	readmitted := 0
	for _, r := range results {
		if r.Admitted {
			readmitted++
		}
	}
	fmt.Printf("re-planned %d queries, %d re-admitted\n", len(affected), readmitted)
	fmt.Printf("now admitted %d/%d queries\n", planner.AdmittedCount(), len(w.Queries))

	after := planner.Assignment().ComputeUsage(sys)
	fmt.Printf("max per-host CPU after replanning: %.2f\n", after.MaxCPU())
	if err := planner.Assignment().Validate(sys); err != nil {
		log.Fatalf("replanned state invalid: %v", err)
	}
	fmt.Println("replanned state validated OK")
}
