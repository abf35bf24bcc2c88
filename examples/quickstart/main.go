// Quickstart: build a tiny DSPS, register two overlapping join queries, and
// let SQPR plan them — demonstrating admission, placement and sub-query
// reuse in ~60 lines of API usage.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sqpr"
)

func main() {
	// Three hosts with CPU, host-bandwidth and link-capacity budgets.
	sys := sqpr.NewSystem([]sqpr.Host{
		{ID: 0, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 1, CPU: 10, OutBW: 100, InBW: 100},
		{ID: 2, CPU: 10, OutBW: 100, InBW: 100},
	}, 50)

	// Base streams: trades and quotes arrive at host 0, news at host 2.
	trades := sys.AddStream(8, sqpr.NoOperator, "trades")
	quotes := sys.AddStream(8, sqpr.NoOperator, "quotes")
	news := sys.AddStream(4, sqpr.NoOperator, "news")
	sys.PlaceBase(0, trades)
	sys.PlaceBase(0, quotes)
	sys.PlaceBase(2, news)

	// Operators: a trades⋈quotes join shared by both queries, plus a
	// second join with the news stream.
	tq := sys.AddOperator([]sqpr.StreamID{trades, quotes}, 2, 3, "trades⋈quotes")
	tqn := sys.AddOperator([]sqpr.StreamID{tq.Output, news}, 1, 2, "tq⋈news")

	// Query 1 asks for the trades⋈quotes stream; query 2 for the 3-way.
	sys.SetRequested(tq.Output, true)
	sys.SetRequested(tqn.Output, true)

	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 500 * time.Millisecond
	planner := sqpr.NewPlanner(sys, cfg)

	for _, q := range []sqpr.StreamID{tq.Output, tqn.Output} {
		res, err := planner.Submit(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d (%s): admitted=%v in %v\n",
			q, sys.Streams[q].Name, res.Admitted, res.PlanTime.Round(time.Millisecond))
	}

	a := planner.Assignment()
	fmt.Println("\nplacements:")
	for _, pl := range a.Ops {
		fmt.Printf("  %s on host %d\n", sys.Operators[pl.Op].Name, pl.Host)
	}
	fmt.Println("flows:")
	for _, f := range a.Flows {
		fmt.Printf("  %s: host %d -> host %d\n", sys.Streams[f.Stream].Name, f.From, f.To)
	}

	// The shared join runs once: both queries reuse its output stream.
	count := 0
	for _, pl := range a.Ops {
		if pl.Op == tq.ID {
			count++
		}
	}
	fmt.Printf("\nshared operator instances: %d (reuse means exactly 1)\n", count)
	if err := a.Validate(sys); err != nil {
		log.Fatalf("plan invalid: %v", err)
	}
	fmt.Println("plan validated OK")
}
