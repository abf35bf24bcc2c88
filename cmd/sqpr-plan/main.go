// Command sqpr-plan is an interactive demonstration of the SQPR planner: it
// builds a small data-centre substrate, generates a query workload, plans
// the queries one by one, and prints the resulting placement — which host
// runs which operator, which streams flow where (including relays), and
// the per-host resource picture.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"sqpr"
	"sqpr/internal/dsps"
	"sqpr/internal/stats"
)

func main() {
	hosts := flag.Int("hosts", 6, "number of hosts")
	queries := flag.Int("queries", 12, "number of queries")
	baseStreams := flag.Int("base-streams", 30, "number of base streams")
	timeout := flag.Duration("timeout", 250*time.Millisecond, "per-query solver timeout")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonOut := flag.String("json", "", "write the final system+plan as JSON to this file ('-' for stdout)")
	showStats := flag.Bool("stats", false, "print solver effort per submit: nodes explored, presolve-fixed variables, LP iterations and basis refactorizations")
	flag.Parse()

	sys := sqpr.BuildSystem(sqpr.SystemConfig{
		NumHosts:   *hosts,
		CPUPerHost: 8,
		OutBW:      80,
		InBW:       80,
		LinkCap:    40,
	})
	wcfg := sqpr.DefaultWorkloadConfig()
	wcfg.NumBaseStreams = *baseStreams
	wcfg.NumQueries = *queries
	wcfg.Seed = *seed
	w := sqpr.GenerateWorkload(sys, wcfg)

	cfg := sqpr.DefaultPlannerConfig()
	cfg.SolveTimeout = *timeout
	p := sqpr.NewPlanner(sys, cfg)

	fmt.Printf("planning %d queries over %d hosts / %d base streams\n\n", *queries, *hosts, *baseStreams)
	ctx := context.Background()
	for i, q := range w.Queries {
		res, err := p.Submit(ctx, q)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		verdict := "REJECTED"
		if res.Admitted {
			verdict = "admitted"
		}
		if res.AlreadyAdmitted {
			verdict = "duplicate (already admitted)"
		}
		fmt.Printf("query %2d (stream %3d, %s): %-28s plan-time=%-8v reduced-model: %d streams / %d ops / %d hosts\n",
			i, q, sys.Streams[q].Name, verdict, res.PlanTime.Round(time.Millisecond),
			res.FreeStreams, res.FreeOps, res.CandidateHosts)
		switch {
		case !*showStats:
		case res.SeedClosed:
			fmt.Println("    solver: skipped (seed decided: large model)")
		default:
			fmt.Printf("    solver: %d nodes, %d presolve-fixed vars, %d LP iters\n",
				res.Nodes, res.PresolveFixed, res.LPIters)
			fmt.Printf("    basis:  %d refactorizations (%d drift-forced), %d eta updates (peak file %d), fill-in %.2f\n",
				res.Factor.Refactors, res.Factor.DriftRebuilds,
				res.Factor.EtaAppends, res.Factor.PeakEtas, res.Factor.FillRatio)
		}
	}

	a := p.Assignment()
	fmt.Printf("\nadmitted %d/%d queries\n\n", p.AdmittedCount(), *queries)

	if *showStats {
		st := p.Stats()
		fmt.Printf("cumulative solver effort: %d nodes, %d presolve-fixed, %d LP iters over %d submissions (%d skipped, %d timeouts, %d admitted beyond the seed)\n",
			st.TotalNodes, st.TotalPresolveFixed,
			st.TotalLPIters, st.Submissions, st.SeedClosed, st.Timeouts, st.BeyondSeed)
		fmt.Printf("cumulative basis effort:  %d refactorizations (%d drift-forced), %d eta updates, peak eta file %d, peak fill-in %.2f\n\n",
			st.Factor.Refactors, st.Factor.DriftRebuilds, st.Factor.EtaAppends,
			st.Factor.PeakEtas, st.Factor.FillRatio)
	}

	fmt.Println("operator placements:")
	for _, pl := range a.Ops {
		op := sys.Operators[pl.Op]
		fmt.Printf("  host %d runs op %d (%s -> stream %d, cost %.2f)\n",
			pl.Host, pl.Op, op.Name, op.Output, op.Cost)
	}
	fmt.Println("\nstream flows (including relays):")
	for _, f := range a.Flows {
		fmt.Printf("  stream %3d: host %d -> host %d (rate %.2f)\n",
			f.Stream, f.From, f.To, sys.Streams[f.Stream].Rate)
	}

	fmt.Println("\nper-host resources:")
	u := a.ComputeUsage(sys)
	header := []string{"host", "cpu-used", "cpu-cap", "out-bw", "in-bw"}
	var rows [][]string
	for h := 0; h < sys.NumHosts(); h++ {
		rows = append(rows, []string{
			strconv.Itoa(h),
			fmt.Sprintf("%.2f", u.CPU[h]),
			fmt.Sprintf("%.0f", sys.Hosts[h].CPU),
			fmt.Sprintf("%.1f", u.Out[h]),
			fmt.Sprintf("%.1f", u.In[h]),
		})
	}
	fmt.Print(stats.Table(header, rows))

	if err := a.Validate(sys); err != nil {
		fmt.Println("\nVALIDATION FAILED:", err)
	} else {
		fmt.Println("\nplan validated: all demand, availability, resource and acyclicity constraints hold")
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "json output:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := dsps.WriteSystem(out, sys); err != nil {
			fmt.Fprintln(os.Stderr, "encoding system:", err)
			os.Exit(1)
		}
		if err := dsps.WriteAssignment(out, a); err != nil {
			fmt.Fprintln(os.Stderr, "encoding assignment:", err)
			os.Exit(1)
		}
	}
}
