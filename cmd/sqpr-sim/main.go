// Command sqpr-sim regenerates the simulation figures of the SQPR paper
// (Fig. 4–6): planning efficiency, batching, overlap, scalability and
// planning-time overhead. Each figure prints the same series the paper
// plots, at the reduced scale documented in DESIGN.md. The extra "churn"
// scenario goes beyond the paper: Poisson host failures and recoveries
// over the planned workload, repaired with the migration-minimal delta
// solver (admissions kept, queries dropped, operators migrated, repair
// latency).
//
// Usage:
//
//	sqpr-sim -fig 4a            # one figure
//	sqpr-sim -fig churn         # the host-churn repair scenario
//	sqpr-sim -fig restart       # the crash/recovery scenario
//	sqpr-sim -fig adaptive      # §IV-B: cost surge, drift detection, re-planning
//	sqpr-sim -fig all           # everything (takes several minutes)
//	sqpr-sim -fig 4a -queries 80 -hosts 10   # dial the scale down
//
// SIGINT/SIGTERM stops the run gracefully: the scenario in flight drains
// at the next boundary and prints the partial results collected so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"sqpr/internal/sim"
	"sqpr/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4a,4b,4c,5a,5b,5c,6a,6b,churn,arrivals,restart,adaptive or all")
	queries := flag.Int("queries", 0, "override query count")
	hosts := flag.Int("hosts", 0, "override host count")
	timeout := flag.Duration("timeout", 0, "override per-query solver timeout")
	seed := flag.Int64("seed", 0, "override workload seed")
	steps := flag.Int("churn-steps", 0, "override churn step count")
	failRate := flag.Float64("fail-rate", 0, "override expected host failures per churn step")
	recoverRate := flag.Float64("recover-rate", 0, "override expected host recoveries per churn step")
	flag.Parse()

	// Validate the figure selector before simulating anything: a typo must
	// cost a usage error, not minutes of solves followed by empty output.
	switch *fig {
	case "all", "4a", "4b", "4c", "5a", "5b", "5c", "6a", "6b", "churn", "arrivals", "restart", "adaptive":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 4a,4b,4c,5a,5b,5c,6a,6b,churn,arrivals,restart,adaptive or all)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run context
	// and the scenarios drain to a valid partial result; a second signal
	// kills the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	sc := sim.DefaultScale()
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *hosts > 0 {
		sc.Hosts = *hosts
	}
	if *timeout > 0 {
		sc.Timeout = *timeout
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	run := func(name string, f func()) {
		if *fig != "all" && *fig != name {
			return
		}
		if ctx.Err() != nil {
			return // interrupted: skip the remaining figures
		}
		start := time.Now()
		fmt.Printf("=== Figure %s ===\n", name)
		f()
		if ctx.Err() != nil {
			fmt.Println("(interrupted: partial results above)")
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	run("4a", func() { print4a(sim.Fig4a(sc)) })
	run("4b", func() { print4a(sim.Fig4b(sc, []int{2, 3, 4, 5})) })
	run("4c", func() { print4c(sim.Fig4c(sc, []float64{0, 0.5, 1, 1.5, 2}, []int{60, 120, 240})) })
	run("5a", func() { printScal(sim.Fig5a(sc, []int{8, 12, 16, 24})) })
	run("5b", func() { printScal(sim.Fig5b(sc, []int{1, 2, 4, 8})) })
	run("5c", func() { printScal(sim.Fig5c(sc, []int{2, 3, 4, 5})) })
	run("6a", func() { printTiming(sim.Fig6a(smaller(sc), []int{4, 6, 8, 10})) })
	run("6b", func() { printTiming(sim.Fig6b(sc, []int{2, 3, 4, 5})) })
	run("churn", func() {
		cs := sim.DefaultChurnScale()
		cs.Scale = sc
		if *steps > 0 {
			cs.Steps = *steps
		}
		if *failRate > 0 {
			cs.FailRate = *failRate
		}
		if *recoverRate > 0 {
			cs.RecoverRate = *recoverRate
		}
		res, err := sim.Churn(ctx, cs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "churn: %v\n", err)
			os.Exit(1)
		}
		printChurn(res)
	})
	run("arrivals", func() {
		ol := sim.DefaultOpenLoopScale()
		if *queries > 0 {
			ol.Queries = *queries
		}
		if *hosts > 0 {
			ol.Hosts = *hosts
		}
		if *timeout > 0 {
			ol.Timeout = *timeout
		}
		if *seed != 0 {
			ol.Seed = *seed
		}
		printArrivals(sim.OpenLoop(ctx, ol))
	})
	run("restart", func() {
		rs := sim.DefaultRestartScale()
		rs.Scale = sc
		rs.CrashAfter = sc.Queries / 2
		res, err := sim.Restart(ctx, rs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restart: %v\n", err)
			os.Exit(1)
		}
		printRestart(res)
	})
	run("adaptive", func() {
		// The monitor reports the three costliest placed operators at
		// twice their planned cost.
		res, err := sim.Adaptive(sc, 2, 3)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptive: %v\n", err)
			os.Exit(1)
		}
		printAdaptive(res)
	})
}

func printAdaptive(r sim.AdaptiveResult) {
	rows := [][]string{
		{"admitted-before-surge", strconv.Itoa(r.AdmittedBefore)},
		{"queries-drifted", strconv.Itoa(r.Drifted)},
		{"drifted-readmitted", strconv.Itoa(r.Readmitted)},
		{"admitted-after-replan", strconv.Itoa(r.AdmittedAfter)},
		{"max-host-cpu-before", fmt.Sprintf("%.2f", r.MaxCPUBefore)},
		{"max-host-cpu-after", fmt.Sprintf("%.2f", r.MaxCPUAfter)},
		{"hosts-above-90%-before", strconv.Itoa(r.ShortageBefore)},
		{"hosts-above-90%-after", strconv.Itoa(r.ShortageAfter)},
	}
	fmt.Print(stats.Table([]string{"metric", "value"}, rows))
}

func printRestart(r sim.RestartResult) {
	rows := [][]string{
		{"submitted-before-crash", strconv.Itoa(r.Submitted)},
		{"admitted-at-crash", strconv.Itoa(r.AdmittedAtCrash)},
		{"recovered-from-snapshot", fmt.Sprintf("%v", r.UsedSnapshot)},
		{"journal-records-replayed", strconv.Itoa(r.ReplayedRecords)},
		{"recovered-admitted", strconv.Itoa(r.RecoveredAdmitted)},
		{"recovery-solves", strconv.Itoa(r.RecoverySolves)},
		{"state-match", fmt.Sprintf("%v", r.StateMatch)},
		{"resumed-submissions", strconv.Itoa(r.ResumeSubmitted)},
		{"final-admitted", strconv.Itoa(r.FinalAdmitted)},
	}
	fmt.Print(stats.Table([]string{"metric", "value"}, rows))
}

// errorSummary prints the harness-wide nonzero-error line: failed solver
// calls must be visible next to the figure they would otherwise skew.
func errorSummary(n int) {
	if n > 0 {
		fmt.Printf("submit-errors: %d (failed planning calls excluded from the admission columns)\n", n)
	}
}

func printArrivals(r sim.OpenLoopResult) {
	header := []string{"rate/s", "submitted", "admitted", "shed",
		"throughput/s", "p50", "p95", "p99", "max"}
	errs := 0
	var rows [][]string
	for _, p := range r.Points {
		errs += p.Errors
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.Rate),
			strconv.Itoa(p.Submitted),
			strconv.Itoa(p.Admitted),
			strconv.Itoa(p.Shed),
			fmt.Sprintf("%.1f", p.Throughput),
			p.P50.Round(time.Millisecond).String(),
			p.P95.Round(time.Millisecond).String(),
			p.P99.Round(time.Millisecond).String(),
			p.Max.Round(time.Millisecond).String(),
		})
	}
	fmt.Print(stats.Table(header, rows))
	errorSummary(errs)
}

func printChurn(r sim.ChurnResult) {
	rows := [][]string{
		{"submitted", strconv.Itoa(r.Submitted)},
		{"admitted-initial", strconv.Itoa(r.AdmittedInitial)},
		{"host-failures", strconv.Itoa(r.Failures)},
		{"host-recoveries", strconv.Itoa(r.Recoveries)},
		{"repair-calls", strconv.Itoa(r.RepairCalls)},
		{"queries-affected", strconv.Itoa(r.Affected)},
		{"admissions-kept", strconv.Itoa(r.Kept)},
		{"queries-dropped", strconv.Itoa(r.Dropped)},
		{"resubmitted", strconv.Itoa(r.Resubmitted)},
		{"readmitted", strconv.Itoa(r.Readmitted)},
		{"operators-migrated", strconv.Itoa(r.Migrated)},
		{"repair-avg", r.RepairAvg.Round(time.Microsecond).String()},
		{"repair-max", r.RepairMax.Round(time.Microsecond).String()},
		{"final-admitted", strconv.Itoa(r.FinalAdmitted)},
		{"final-hosts-down", strconv.Itoa(r.FinalDown)},
	}
	fmt.Print(stats.Table([]string{"metric", "value"}, rows))
}

// smaller trims the scale for the host-sweep timing figure, whose cost
// grows steeply with the candidate-host count (that growth is the result).
func smaller(sc sim.Scale) sim.Scale {
	sc.Queries = sc.Queries / 2
	return sc
}

func print4a(r sim.Fig4aResult) {
	if len(r.Curves) == 0 {
		return
	}
	header := []string{"inputs"}
	for _, c := range r.Curves {
		header = append(header, c.Label)
	}
	var rows [][]string
	for i, in := range r.Curves[0].Inputs {
		row := []string{strconv.Itoa(in)}
		for _, c := range r.Curves {
			if i < len(c.Satisfied) {
				row = append(row, strconv.Itoa(c.Satisfied[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	fmt.Print(stats.Table(header, rows))
	errs := 0
	for _, c := range r.Curves {
		errs += c.Errors
	}
	errorSummary(errs)
}

func print4c(r sim.Fig4cResult) {
	header := []string{"zipf"}
	for _, bc := range r.BaseStreams {
		header = append(header, fmt.Sprintf("%d-base-streams", bc))
	}
	var rows [][]string
	for j, z := range r.Zipfs {
		row := []string{fmt.Sprintf("%.1f", z)}
		for i := range r.BaseStreams {
			row = append(row, strconv.Itoa(r.Satisfied[i][j]))
		}
		rows = append(rows, row)
	}
	fmt.Print(stats.Table(header, rows))
	errorSummary(r.Errors)
}

func printScal(r sim.ScalabilityResult) {
	header := []string{r.XLabel, "sqpr", "optimistic-bound"}
	var rows [][]string
	for i, x := range r.X {
		rows = append(rows, []string{strconv.Itoa(x), strconv.Itoa(r.SQPR[i]), strconv.Itoa(r.Bound[i])})
	}
	fmt.Print(stats.Table(header, rows))
	errorSummary(r.Errors)
}

func printTiming(r sim.TimingResult) {
	header := []string{r.XLabel, "avg-plan-time", "samples"}
	var rows [][]string
	for i, x := range r.X {
		rows = append(rows, []string{
			strconv.Itoa(x),
			r.AvgTime[i].Round(time.Millisecond).String(),
			strconv.Itoa(r.Samples[i]),
		})
	}
	fmt.Print(stats.Table(header, rows))
	errorSummary(r.Errors)
}
