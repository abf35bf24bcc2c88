// Command bench is the repository's benchmark: it hosts the admission
// daemon's stack in-process as `sqpr-cluster -serve -wal` wires it, drives it
// over loopback HTTP from one closed-loop client, checks what comes back, and
// prints the metrics BENCHMARK.json names. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// A run sets up at least minSetups times, and again until setupBudget has
// gone into set-ups; setup_s is the median. A set-up of half a second is
// short enough for one scheduling hiccup to show, so the cheap ones repeat
// more often.
const (
	minSetups   = 3
	setupBudget = 4 * time.Second
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the script: the order of a round's work and every random choice in it")
	seconds := flag.Float64("seconds", 20, "measure whole rounds for as close to this many seconds as they come")
	trace := flag.Int("trace", 0, "1 runs traced rounds and layer probes and prints the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run the end-to-end suite this many times on consecutive seeds and print each metric's spread beside its bound")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	flag.Parse()

	var run []*spec
	if *workloadFlag == "all" {
		for i := range specs {
			run = append(run, &specs[i])
		}
	} else if sp := specByName(*workloadFlag); sp != nil {
		run = append(run, sp)
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}

	// Journals live under the working directory, which is the checkout.
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 0
	if *repeat > 0 {
		code = runRepeat(run, tmp, *seed, *seconds, *repeat)
	} else {
		for _, sp := range run {
			rep := runOne(sp, tmp, *seed, *seconds, *trace == 1, *spans)
			if !rep.Correct {
				code = 1
			}
			line, _ := json.Marshal(rep)
			fmt.Printf("%s\n", line)
		}
	}
	_ = os.RemoveAll(tmp)
	os.Exit(code)
}

// report is the result line of one workload.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne runs one workload and returns its result line; progress and the
// reason for a failed check go to standard error.
func runOne(sp *spec, tmp string, seed int64, seconds float64, traced bool, spansPath string) report {
	rep := report{Attempted: 1, Metrics: map[string]value{}}
	e := &env{sp: sp, seed: seed, tmp: tmp, ref: newRefKernel()}
	setup, err := e.setUp()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: set-up: %v\n", sp.name, err)
		return rep
	}
	var a *aggregate
	if traced {
		a, err = e.measureTraced(seconds, spansPath)
	} else {
		a, err = e.measure(seconds)
	}
	if a != nil {
		rep.Attempted, rep.Failed = max(a.ops, 1), a.failed
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
		return rep
	}
	if traced {
		for _, m := range perLayer {
			rep.Metrics[m.name] = value{a.layer[m.name], m.unit}
		}
	} else {
		vals := a.endToEnd(setup)
		for _, m := range endToEnd {
			rep.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(os.Stderr, "%s: seed %d, %d rounds, %d ops in %.2fs measured (%.2fs of it in the reference kernel)\n",
		sp.name, seed, a.rounds, a.ops, a.wall.Seconds(), a.kernel.Seconds())
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	return rep
}

// setUp brings the workload to the point where measuring can start, several
// times over, and returns the median time of one set-up: generate system and
// queries, prefill on a bare planner, seed a journal with the result, open
// the stack on it (recovery), and play a short warm-up script through it.
// Every set-up repeats all of it, so work a change moves here shows. Like
// every gated time it is scaled to the reference machine, segment by segment.
func (e *env) setUp() (time.Duration, error) {
	var times []time.Duration
	var total time.Duration
	for len(times) < minSetups || total < setupBudget {
		start := time.Now()
		clk := &lapClock{k: e.ref}
		clk.start()
		if err := e.prefill(clk); err != nil {
			return 0, err
		}
		in, err := e.open(nil)
		if err != nil {
			return 0, err
		}
		clk.lap()
		// The warm-up's requests are timed and scaled by the client.
		c := newClient(in, e.ref, nil)
		newScript(e.seed, 0, e.pop, e.initial).run(e.sp.warmUp(), e.seq[:min(len(e.seq), e.sp.warm)], c)
		clk.start()
		c.hc.CloseIdleConnections()
		err = in.close()
		in.remove()
		clk.lap()
		if err == nil {
			err = c.err
		}
		if err != nil {
			return 0, err
		}
		warm := newAggregate()
		warm.add(c)
		times = append(times, clk.scaled+warm.busy(true))
		total += time.Since(start)
	}
	return quantile(sorted(times), 0.5), nil
}

// aggregate pools the measured rounds of a run.
type aggregate struct {
	rounds   int
	ops      int
	failed   int
	fresh    int
	admitted int
	wall     time.Duration // scripts, reference kernel runs included
	kernel   time.Duration // of which in the reference kernel
	samples  []sample
	layer    map[string]float64
}

func newAggregate() *aggregate {
	return &aggregate{layer: make(map[string]float64)}
}

func (a *aggregate) add(c *client) {
	a.rounds++
	a.ops += c.ops
	a.failed += c.failed
	a.fresh += c.fresh
	a.admitted += c.admitted
	a.wall += c.wall
	a.kernel += c.kernel
	a.samples = append(a.samples, c.samples...)
}

// lat returns the latencies of one kind of op, as measured or scaled to the
// reference machine.
func (a *aggregate) lat(kind string, scaled bool) []time.Duration {
	var out []time.Duration
	for _, s := range a.samples {
		if s.kind == kind {
			out = append(out, s.time(scaled))
		}
	}
	return out
}

func (a *aggregate) p50(kind string, scaled bool) time.Duration {
	return quantile(sorted(a.lat(kind, scaled)), 0.5)
}

// busy is the time the client spent waiting for answers: the run's measured
// time, without the reference kernel's runs between requests.
func (a *aggregate) busy(scaled bool) time.Duration {
	var sum time.Duration
	for _, s := range a.samples {
		if s.kind != opRestore { // a cycle is a sum of requests already counted
			sum += s.time(scaled)
		}
	}
	return sum
}

// filled reports whether one more round of the size seen so far would take
// the measured script time further from seconds than it is now.
func filled(wall time.Duration, rounds int, seconds float64) bool {
	if rounds == 0 {
		return false
	}
	return wall.Seconds()*(1+0.5/float64(rounds)) >= seconds
}

// endToEnd computes the gated metrics from the pooled rounds: latencies are
// medians over every sample of every round, throughput is all ops over the
// time the client waited for them, both scaled to the reference machine.
func (a *aggregate) endToEnd(setup time.Duration) map[string]float64 {
	return map[string]float64{
		"setup_s":       setup.Seconds(),
		"ops_per_s":     float64(a.ops) / a.busy(true).Seconds(),
		"submit_p50_ms": ms(a.p50(opSubmit, true)),
		"admitted_frac": float64(a.admitted) / float64(max(a.fresh, 1)),
	}
}

// measure plays whole rounds for as close to seconds of script time as whole
// rounds come. Each round starts from the prefilled state on a fresh stack.
func (e *env) measure(seconds float64) (*aggregate, error) {
	a := newAggregate()
	for !filled(a.wall, a.rounds, seconds) {
		r, err := e.round(a.rounds+1, nil, false)
		if r != nil {
			a.add(r.c)
		}
		if err != nil {
			return a, err
		}
	}
	return a, nil
}

// runRepeat runs the end-to-end suite n times on seeds seed..seed+n-1 and
// prints, per workload and metric, min/median/max and the quartile spread
// beside the bound.
func runRepeat(run []*spec, tmp string, seed int64, seconds float64, n int) int {
	code := 0
	vals := make(map[string]map[string][]float64)
	for i := 0; i < n; i++ {
		for _, sp := range run {
			rep := runOne(sp, tmp, seed+int64(i), seconds, false, "")
			if !rep.Correct {
				code = 1
			}
			if vals[sp.name] == nil {
				vals[sp.name] = make(map[string][]float64)
			}
			for k, v := range rep.Metrics {
				vals[sp.name][k] = append(vals[sp.name][k], v.Value)
			}
		}
	}
	fmt.Printf("%-20s %-14s %10s %10s %10s %8s %8s %6s\n", "workload", "metric", "min", "median", "max", "range", "iqr", "bound")
	for _, sp := range run {
		for _, m := range endToEnd {
			v := append([]float64(nil), vals[sp.name][m.name]...)
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			med := medianFloat(v)
			fmt.Printf("%-20s %-14s %10.4f %10.4f %10.4f %8.4f %8.4f %6.2f\n", sp.name, m.name,
				v[0], med, v[len(v)-1], (v[len(v)-1]-v[0])/med, quartileSpread(v), m.bound)
		}
	}
	return code
}
