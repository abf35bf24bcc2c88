// Netmonitor: a network-monitoring deployment (one of the application
// domains motivating the paper, cf. Gigascope). Probe streams from several
// vantage points are joined into per-link and per-path monitors; SQPR plans
// the queries and the mini stream engine then executes the plan in
// simulated time, reporting the consumption it measured — the full
// plan → deploy → measure loop of the DISSP architecture (Fig. 3).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sqpr"
)

func main() {
	// Four monitoring hosts; probes land on different hosts.
	sys := sqpr.NewSystem([]sqpr.Host{
		{ID: 0, CPU: 12, OutBW: 120, InBW: 120},
		{ID: 1, CPU: 12, OutBW: 120, InBW: 120},
		{ID: 2, CPU: 12, OutBW: 120, InBW: 120},
		{ID: 3, CPU: 12, OutBW: 120, InBW: 120},
	}, 60)

	probes := make([]sqpr.StreamID, 4)
	for i := range probes {
		probes[i] = sys.AddStream(6, sqpr.NoOperator, fmt.Sprintf("probe-%d", i))
		sys.PlaceBase(sqpr.HostID(i), probes[i])
	}

	// Per-link monitors: adjacent probe joins. Path monitor: join of the
	// two link monitors (shares both sub-joins).
	link01 := sys.AddOperator([]sqpr.StreamID{probes[0], probes[1]}, 2, 2, "link(0,1)")
	link23 := sys.AddOperator([]sqpr.StreamID{probes[2], probes[3]}, 2, 2, "link(2,3)")
	path := sys.AddOperator([]sqpr.StreamID{link01.Output, link23.Output}, 1, 1.5, "path(0..3)")

	for _, q := range []sqpr.StreamID{link01.Output, link23.Output, path.Output} {
		sys.SetRequested(q, true)
	}

	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 400 * time.Millisecond
	planner := sqpr.NewPlanner(sys, cfg)
	for _, q := range []sqpr.StreamID{link01.Output, link23.Output, path.Output} {
		res, err := planner.Submit(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("monitor %-10s admitted=%v\n", sys.Streams[q].Name, res.Admitted)
	}

	fmt.Println("\ndeploying plan on the mini stream engine for 1.2 simulated seconds...")
	rep, err := sqpr.RunEngine(sys, planner.Assignment(), 1.2)
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, n := range rep.Results {
		total += n
	}
	fmt.Printf("delivered %d result tuples:\n", total)
	for _, q := range []sqpr.StreamID{link01.Output, link23.Output, path.Output} {
		fmt.Printf("  %-10s %d tuples\n", sys.Streams[q].Name, rep.Results[q])
	}

	fmt.Println("\nper-host measured consumption (monitor):")
	for h := 0; h < sys.NumHosts(); h++ {
		fmt.Printf("  host %d: cpu-work=%.1f sent=%.0f received=%.0f delivered=%.0f\n",
			h, rep.CPUWork[h], rep.Sent[h], rep.Received[h], rep.Delivered[h])
	}
}
