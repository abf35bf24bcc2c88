// Adaptive: demonstrates §IV-B adaptive query planning. After initial
// placement, the observed cost of an operator drifts far above the cost
// model's estimate (e.g. a data-rate surge). The monitor's measurement goes
// to the admission service as a cost event: Repair replaces the modelled
// cost, journals it with the rest of the planner state, and re-plans the
// queries running the operator — migrating operators to hosts that can
// still carry them.
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
	svc := sqpr.NewService(sqpr.NewPlanner(sys, cfg), sqpr.ServiceConfig{})
	defer svc.Close()

	ctx := context.Background()
	for _, q := range w.Queries {
		if _, err := svc.Submit(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("initially admitted %d/%d queries\n", svc.AdmittedCount(), len(w.Queries))
	fmt.Printf("max per-host CPU before drift: %.2f\n", svc.Assignment().ComputeUsage(sys).MaxCPU())

	// Simulate monitoring feedback: one placed operator now costs 2.5x its
	// estimate (the resource monitor of Fig. 3 reports this).
	ops := svc.Assignment().Ops
	if len(ops) == 0 {
		log.Fatal("no operators placed")
	}
	drifted := ops[0].Op
	rr, err := svc.Repair(ctx, []sqpr.Event{sqpr.CostDrift(drifted, sys.Operators[drifted].Cost*2.5)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operator %d drifted 2.5x; %d queries affected, %d re-admitted\n", drifted, len(rr.Affected), len(rr.Kept))
	fmt.Printf("now admitted %d/%d queries\n", svc.AdmittedCount(), len(w.Queries))

	fmt.Printf("max per-host CPU after replanning: %.2f\n", svc.Assignment().ComputeUsage(sys).MaxCPU())
	if err := svc.Assignment().Validate(sys); err != nil {
		log.Fatalf("replanned state invalid: %v", err)
	}
	fmt.Println("replanned state validated OK")
}
