// Command sqpr-cluster regenerates the deployment study of §V-B (Fig. 7):
// SQPR vs a SODA-like planner on a 15-host cluster substrate, with
// per-wave admission counts (7a) and host CPU / network utilisation CDFs
// (7b, 7c). It finishes by deploying both final plans on the mini stream
// engine and reporting delivered result tuples, closing the plan → deploy →
// measure loop of the paper's prototype.
//
// With -wal DIR the deployment check runs through a durable admission
// service journaling to a write-ahead log in DIR: killing the process and
// rerunning with the same DIR resumes from the journal — already-admitted
// queries are recovered without a single planning solve and skipped on
// resubmission. SIGINT/SIGTERM stops a run gracefully: in-flight work
// drains, the journal is flushed, and partial results are printed.
//
// With -serve ADDR the binary skips the study entirely and runs as a
// long-lived admission daemon: the HTTP control plane of internal/serve
// (submit/remove/repair, /metrics, /healthz, /readyz) over the cluster
// substrate, durable when -wal is also given. SIGTERM drains gracefully:
// readiness flips off, in-flight requests finish, the journal is flushed,
// and the process exits 0.
//
// -fig drain runs the rolling-drain scenario instead of the Fig-7 study:
// hosts are drained one at a time through journaled Repair calls while the
// HTTP API keeps serving, asserting zero lost admissions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/sim"
	"sqpr/internal/stats"
	"sqpr/internal/wal"
)

func main() {
	fig := flag.String("fig", "all", "part to print: 7a, 7b, 7c, all, or drain (rolling-drain scenario)")
	waves := flag.Int("waves", 0, "override number of 50-query waves")
	deploy := flag.Bool("deploy", true, "run the final plans on the mini engine")
	walDir := flag.String("wal", "", "journal the deployment check's admissions to a WAL in this directory and resume from it on restart")
	serveAddr := flag.String("serve", "", "run as a long-lived admission daemon serving the HTTP control plane on this address (e.g. :8080) instead of the one-shot study")
	flag.Parse()

	// Validate the figure selector before simulating: the Fig-7 run takes
	// minutes, and a typo like "-fig 7d" used to burn all of it and then
	// print nothing.
	switch *fig {
	case "all", "7a", "7b", "7c", "drain":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 7a, 7b, 7c, all or drain)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the run context;
	// scenarios drain at the next boundary and partial results still print.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	ds := sim.DefaultDeployScale()
	if *waves > 0 {
		ds.Waves = *waves
	}

	if *serveAddr != "" {
		runServe(ctx, ds, *serveAddr, *walDir)
		return
	}
	if *fig == "drain" {
		runRollingDrain(ctx)
		return
	}

	res := sim.Fig7(ctx, ds)
	if ctx.Err() != nil {
		fmt.Println("(interrupted: partial waves below)")
	}

	if *fig == "all" || *fig == "7a" {
		fmt.Println("=== Figure 7a: planning efficiency (deployment) ===")
		var rows [][]string
		for i, in := range res.Inputs {
			rows = append(rows, []string{
				strconv.Itoa(in), strconv.Itoa(res.SQPR[i]), strconv.Itoa(res.SODA[i]),
			})
		}
		fmt.Print(stats.Table([]string{"inputs", "sqpr", "soda"}, rows))
		if res.SQPRErrors > 0 || res.SODAErrors > 0 {
			fmt.Printf("submit-errors: sqpr=%d soda=%d (failed planning calls excluded from the admission columns)\n",
				res.SQPRErrors, res.SODAErrors)
		}
		fmt.Println()
	}

	printCDF := func(title string, cdfs map[string]*stats.CDF) {
		fmt.Printf("=== %s ===\n", title)
		header := []string{"series", "p25", "p50", "p75", "p90", "max"}
		var rows [][]string
		for _, name := range []string{"SQPR-50", "SODA-50", "SQPR-150", "SODA-150"} {
			c := cdfs[name]
			if c == nil || c.Len() == 0 {
				continue
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%.1f", c.Quantile(0.25)),
				fmt.Sprintf("%.1f", c.Quantile(0.5)),
				fmt.Sprintf("%.1f", c.Quantile(0.75)),
				fmt.Sprintf("%.1f", c.Quantile(0.9)),
				fmt.Sprintf("%.1f", c.Quantile(1)),
			})
		}
		fmt.Print(stats.Table(header, rows))
		fmt.Println()
	}

	if *fig == "all" || *fig == "7b" {
		printCDF("Figure 7b: CPU utilisation per host (%)", map[string]*stats.CDF{
			"SQPR-50":  res.CPULowSQPR,
			"SODA-50":  res.CPULowSODA,
			"SQPR-150": res.CPUHighSQPR,
			"SODA-150": res.CPUHighSODA,
		})
	}
	if *fig == "all" || *fig == "7c" {
		printCDF("Figure 7c: network usage per host (rate units)", map[string]*stats.CDF{
			"SQPR-50":  res.NetLowSQPR,
			"SODA-50":  res.NetLowSODA,
			"SQPR-150": res.NetHighSQPR,
			"SODA-150": res.NetHighSODA,
		})
	}

	if *deploy {
		fmt.Println("=== Engine deployment check ===")
		scale := clusterScale(ds)
		env := sim.BuildEnv(scale)
		if *walDir != "" {
			runDurableDeploy(ctx, env, scale, *walDir)
			return
		}
		ad := env.NewSQPR(scale, scale.Timeout)
		for _, q := range env.Queries {
			if ctx.Err() != nil {
				fmt.Println("(interrupted before deployment)")
				return
			}
			ad.Submit(ctx, q)
		}
		line, err := deployCheck(env.Sys, ad.Assignment())
		if err != nil {
			fmt.Println("deploy error:", err)
			return
		}
		fmt.Printf("admitted=%d %s\n", ad.AdmittedCount(), line)
	}
}

// deployCheck runs the assignment on the mini engine for 1.5 simulated
// seconds and formats the result tuples and CPU work it measured.
func deployCheck(sys *dsps.System, a *dsps.Assignment) (string, error) {
	rep, err := sim.DeployAndMeasure(sys, a, 1500*time.Millisecond)
	if err != nil {
		return "", err
	}
	var tuples int64
	for _, n := range rep.Results {
		tuples += n
	}
	var cpu float64
	for _, c := range rep.CPUWork {
		cpu += c
	}
	return fmt.Sprintf("deployed-result-tuples=%d total-cpu-work=%.1f", tuples, cpu), nil
}

// clusterScale is the single-wave cluster substrate shared by the
// deployment check and the -serve daemon.
func clusterScale(ds sim.DeployScale) sim.Scale {
	return sim.Scale{
		Hosts: ds.Hosts, CPUPerHost: ds.CPUPerHost, OutBW: ds.OutBW,
		InBW: ds.InBW, LinkCap: ds.LinkCap, BaseStreams: ds.BaseStreams,
		BaseRate: ds.BaseRate, Queries: ds.WaveSize, Zipf: 1,
		Arities: []int{2, 3}, Timeout: ds.Timeout, MaxCandHost: 8, Seed: ds.Seed,
	}
}

// Connection timeouts of the -serve daemon, so a client that stalls while
// sending headers or a body, or idles on keep-alive, cannot hold a
// connection open forever. There is no write timeout: a reply legitimately
// waits out a solve.
const (
	serveReadHeaderTimeout = 5 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// runServe is the -serve daemon mode: the SQPR planner over the cluster
// substrate behind the internal/serve control plane, durable when -wal is
// given. SIGINT/SIGTERM starts a graceful drain — readiness flips off,
// in-flight requests finish, the journal is flushed — and the process
// exits 0.
func runServe(ctx context.Context, ds sim.DeployScale, addr, walDir string) {
	scale := clusterScale(ds)
	env := sim.BuildEnv(scale)
	p := env.NewPlanner(scale)

	var svc *plan.Service
	if walDir != "" {
		fs, err := wal.DirFS(walDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wal: %v\n", err)
			os.Exit(1)
		}
		var rs plan.RecoveredState
		svc, rs, err = plan.OpenService(p, plan.ServiceConfig{}, fs, wal.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wal: opening durable service: %v\n", err)
			os.Exit(1)
		}
		if rs.UsedSnapshot || rs.Records > 0 {
			fmt.Printf("resumed from journal: %d admitted recovered (snapshot=%v records=%d)\n",
				rs.Admitted, rs.UsedSnapshot, rs.Records)
		}
	} else {
		svc = plan.NewService(p, plan.ServiceConfig{})
	}

	srv, err := serve.New(serve.Config{Service: svc, System: env.Sys})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	go func() {
		<-ctx.Done()
		fmt.Println("shutdown signal: draining")
		srv.StartDrain()
		//sqpr:ctxroot graceful drain outlives the signal context
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		}
	}()

	fmt.Printf("serving admission control plane on %s (hosts=%d queries=%d durable=%v)\n",
		addr, scale.Hosts, len(env.Queries), walDir != "")
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	// Exit path: every accepted request has been answered; flush the
	// journal and stop the dispatcher before reporting a clean exit.
	if err := svc.SyncWAL(); err != nil {
		fmt.Fprintf(os.Stderr, "wal: flushing journal on exit: %v\n", err)
		svc.Close()
		os.Exit(1)
	}
	svc.Close()
	fmt.Printf("drained: admitted=%d\n", p.AdmittedCount())
}

// runRollingDrain is the -fig drain scenario: roll hosts through journaled
// drain/recover repairs while the HTTP API keeps serving, asserting zero
// lost admissions.
func runRollingDrain(ctx context.Context) {
	res, err := sim.RollingDrain(ctx, sim.DefaultDrainScale())
	if err != nil {
		fmt.Fprintf(os.Stderr, "drain scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("=== Rolling drain: API availability under journaled host maintenance ===")
	fmt.Printf("submitted=%d admitted=%d hosts-drained=%d dropped=%d lost-admissions=%d\n",
		res.Submitted, res.Admitted, res.HostsDrained, res.Dropped, res.LostAdmissions)
	fmt.Printf("api-probes=%d/%d ok  journal-recovered-admitted=%d durable=%v\n",
		res.ProbeOK, res.ProbeTotal, res.RecoveredAdmitted, res.Durable)
	if ctx.Err() != nil {
		fmt.Println("(interrupted: partial roll above)")
		return
	}
	if res.LostAdmissions > 0 || res.Dropped > 0 || !res.Durable {
		fmt.Fprintln(os.Stderr, "rolling drain lost admissions")
		os.Exit(1)
	}
}

// runDurableDeploy is the -wal mode of the deployment check: admissions go
// through a durable plan.Service journaling to dir, so a killed run can be
// restarted with the same -wal dir and resumes where it stopped — the
// recovered queries are rebuilt from the journal with zero planning solves
// and skipped on resubmission.
func runDurableDeploy(ctx context.Context, env *sim.Env, scale sim.Scale, dir string) {
	fs, err := wal.DirFS(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wal: %v\n", err)
		os.Exit(1)
	}
	p := env.NewPlanner(scale)
	svc, rs, err := plan.OpenService(p, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wal: opening durable service: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()
	if rs.UsedSnapshot || rs.Records > 0 {
		fmt.Printf("resumed from journal: %d admitted recovered (snapshot=%v records=%d torn-tail-bytes=%d planning-solves=0)\n",
			rs.Admitted, rs.UsedSnapshot, rs.Records, rs.TailTruncated)
	}

	submitted, skipped := 0, 0
	for _, q := range env.Queries {
		if ctx.Err() != nil {
			break
		}
		if svc.Admitted(q) {
			skipped++ // recovered from the journal; nothing to plan
			continue
		}
		if _, err := svc.Submit(ctx, q); err != nil {
			fmt.Fprintf(os.Stderr, "submit %d: %v\n", q, err)
			return
		}
		submitted++
	}
	if err := svc.SyncWAL(); err != nil {
		fmt.Fprintf(os.Stderr, "wal: flushing journal: %v\n", err)
	}
	fmt.Printf("admitted=%d submitted=%d skipped-already-admitted=%d\n",
		svc.AdmittedCount(), submitted, skipped)
	if ctx.Err() != nil {
		fmt.Println("(interrupted: journal flushed; rerun with the same -wal dir to resume)")
		return
	}
	line, err := deployCheck(env.Sys, svc.Assignment())
	if err != nil {
		fmt.Println("deploy error:", err)
		return
	}
	fmt.Println(line)
}
