// Federated: the paper's §VII outlook — "query planning across federated
// data centres by first assigning queries to sites and then planning
// queries within sites". Two "data centres" of four hosts each are managed
// by the hierarchical planner: each query is routed to the site holding
// most of its source streams and placed there by SQPR; queries straddling
// both sites fall back to cross-site planning. The example compares
// admissions and planning effort against flat (whole-cluster) SQPR.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sqpr"
)

func build() (*sqpr.System, []sqpr.StreamID) {
	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts:   8, // hosts 0-3 = site A, hosts 4-7 = site B
		CPUPerHost: 6,
		OutBW:      70,
		InBW:       70,
		LinkCap:    30,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = 40
	wcfg.NumQueries = 24
	wcfg.Arities = []int{2, 3}
	wcfg.Seed = 11
	w := sqpr.GenerateWorkload(sys, wcfg)
	return sys, w.Queries
}

func main() {
	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = 150 * time.Millisecond

	// Hierarchical: two sites.
	sysH, queriesH := build()
	hier := sqpr.NewHierarchicalPlanner(sysH, cfg, 2)
	fmt.Println("site partition:")
	for i, site := range hier.Sites() {
		fmt.Printf("  site %d: hosts %v\n", i, site)
	}
	ctx := context.Background()
	startH := time.Now()
	for _, q := range queriesH {
		hier.Submit(ctx, q)
	}
	hierTime := time.Since(startH)
	if err := hier.Assignment().Validate(sysH); err != nil {
		log.Fatalf("hierarchical plan invalid: %v", err)
	}

	// Flat SQPR over the whole cluster for comparison.
	sysF, queriesF := build()
	cfgFlat := cfg
	cfgFlat.MaxCandidateHosts = 8
	flat := sqpr.NewPlanner(sysF, cfgFlat)
	startF := time.Now()
	for _, q := range queriesF {
		if _, err := flat.Submit(ctx, q); err != nil {
			log.Fatal(err)
		}
	}
	flatTime := time.Since(startF)

	fmt.Printf("\n              admitted   total-plan-time\n")
	fmt.Printf("hierarchical  %8d   %v\n", hier.AdmittedCount(), hierTime.Round(time.Millisecond))
	fmt.Printf("flat          %8d   %v\n", flat.AdmittedCount(), flatTime.Round(time.Millisecond))

	// Show how many operators stayed inside their site.
	inSite, crossSite := 0, 0
	for _, p := range hier.Assignment().Provides {
		site := 0
		if p.Host >= 4 {
			site = 1
		}
		local := true
		for _, pl := range hier.Assignment().Ops {
			plSite := 0
			if pl.Host >= 4 {
				plSite = 1
			}
			if sysH.Operators[pl.Op].Output == p.Stream && plSite != site {
				local = false
			}
		}
		if local {
			inSite++
		} else {
			crossSite++
		}
	}
	fmt.Printf("\nresult providers with fully in-site final operators: %d, cross-site: %d\n", inSite, crossSite)
}
