package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/lp"
	"sqpr/internal/milp"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// perLayer is the traced run's metric set, grouped by module. None is gated;
// README.md says which end-to-end metric each should move, on which workload.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metric{
	{name: "net.self_us", unit: "us", better: "lower"},
	{name: "serve.handler_us", unit: "us", better: "lower"},
	{name: "serve.self_us", unit: "us", better: "lower"},
	{name: "serve.get_admitted_us", unit: "us", better: "lower"},
	{name: "serve.get_metrics_us", unit: "us", better: "lower"},

	{name: "plan.service_us", unit: "us", better: "lower"},
	{name: "plan.self_us", unit: "us", better: "lower"},
	{name: "plan.export_state_us", unit: "us", better: "lower"},
	{name: "plan.diff_encode_us", unit: "us", better: "lower"},
	{name: "plan.recover_ms", unit: "ms", better: "lower"},
	{name: "plan.solves", unit: "count", better: "lower"},
	{name: "plan.batched_submits", unit: "count", better: "lower"},
	{name: "plan.queue_full", unit: "count", better: "lower"},
	{name: "plan.expired", unit: "count", better: "lower"},
	{name: "plan.diff_us", unit: "us", better: "lower"},
	{name: "plan.state_marshal_us", unit: "us", better: "lower"},
	{name: "plan.state_bytes", unit: "count", better: "lower"},

	{name: "core.submit_ms", unit: "ms", better: "lower"},
	{name: "core.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "core.remove_us", unit: "us", better: "lower"},
	{name: "core.repair_fail_ms", unit: "ms", better: "lower"},
	{name: "core.repair_recover_ms", unit: "ms", better: "lower"},
	{name: "core.budget_hit_frac", unit: "ratio", better: "lower"},
	{name: "core.model_vars_mean", unit: "count", better: "lower"},
	{name: "core.free_streams_mean", unit: "count", better: "lower"},
	{name: "core.rejections", unit: "count", better: "lower"},
	{name: "core.timeouts", unit: "count", better: "lower"},
	{name: "core.stalls", unit: "count", better: "lower"},
	{name: "core.repair_drain_ms", unit: "ms", better: "lower"},

	{name: "milp.nodes_per_solve", unit: "count", better: "lower"},
	{name: "milp.cuts_per_solve", unit: "count", better: "lower"},
	{name: "milp.fixings_per_solve", unit: "count", better: "higher"},
	{name: "milp.presolve_fixed_per_solve", unit: "count", better: "higher"},
	{name: "milp.node_probe_us", unit: "us", better: "lower"},

	{name: "lp.iters_per_solve", unit: "count", better: "lower"},
	{name: "lp.refactors_per_solve", unit: "count", better: "lower"},
	{name: "lp.drift_rebuilds", unit: "count", better: "lower"},
	{name: "lp.eta_peak", unit: "count", better: "lower"},
	{name: "lp.fill_ratio", unit: "ratio", better: "lower"},
	{name: "lp.resolve_probe_us", unit: "us", better: "lower"},

	{name: "dsps.clone_us", unit: "us", better: "lower"},
	{name: "dsps.validate_us", unit: "us", better: "lower"},
	{name: "dsps.compute_usage_us", unit: "us", better: "lower"},
	{name: "dsps.gc_us", unit: "us", better: "lower"},
	{name: "dsps.admitted", unit: "count", better: "higher"},

	{name: "wal.fs_write_us", unit: "us", better: "lower"},
	{name: "wal.fs_sync_us", unit: "us", better: "lower"},
	{name: "wal.fs_writes", unit: "count", better: "lower"},
	{name: "wal.fs_syncs", unit: "count", better: "lower"},
	{name: "wal.bytes_per_append", unit: "count", better: "lower"},
	{name: "wal.appends", unit: "count", better: "lower"},
	{name: "wal.snapshots", unit: "count", better: "lower"},
	{name: "wal.rotations", unit: "count", better: "lower"},
	{name: "wal.append_always_us", unit: "us", better: "lower"},
	{name: "wal.append_every_us", unit: "us", better: "lower"},
	{name: "wal.append_never_us", unit: "us", better: "lower"},
	{name: "wal.recover_1k_ms", unit: "ms", better: "lower"},

	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.submit_p95_ms", unit: "ms", better: "lower"},
	{name: "client.submit_p99_ms", unit: "ms", better: "lower"},
	{name: "client.submit_max_ms", unit: "ms", better: "lower"},
	{name: "client.submit_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "client.ops_per_s_raw", unit: "1/s", better: "higher"},
	{name: "client.remove_p50_ms", unit: "ms", better: "lower"},
	{name: "client.read_p50_ms", unit: "ms", better: "lower"},
	{name: "client.repair_fail_p50_ms", unit: "ms", better: "lower"},
	{name: "client.restore_p50_ms", unit: "ms", better: "lower"},
	{name: "trace.stage_sum_frac", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "machine.ref_kernel_us", unit: "us", better: "lower"},
}

// measureTraced alternates untraced and traced rounds for as close to seconds
// as whole pairs come (at least one pair), derives the per-layer metrics from the
// spans and the services' own counters, then probes each layer directly at
// the state the last round left. The untraced rounds give the client-side
// tail and the baseline that tracing overhead is measured against.
func (e *env) measureTraced(seconds float64, spansPath string) (*aggregate, error) {
	tr := newTracer()
	plain, traced := newAggregate(), newAggregate()
	var recov layerTime // every round's OpenService
	var svc plan.ServiceStats
	var planner plan.Stats
	var journal wal.Stats
	var last *roundResult
	closeLast := func() error {
		if last == nil || last.in == nil {
			return nil
		}
		err := last.in.close()
		last.in.remove()
		last = nil
		return err
	}
	for n := 1; !filled(plain.wall+traced.wall, n-1, seconds); n++ {
		// Pairs alternate which side goes first, so that a machine
		// speeding up or slowing down over the run favours neither.
		for _, withTrace := range []bool{n%2 == 0, n%2 != 0} {
			if !withTrace {
				r, err := e.round(n, nil, false)
				if r != nil {
					plain.add(r.c)
					recov.count++
					recov.total += r.recover
				}
				if err != nil {
					_ = closeLast()
					return plain, err
				}
				continue
			}
			// The same round, traced, and kept open until the next traced
			// round replaces it: the probes want a final state.
			if err := closeLast(); err != nil {
				return plain, err
			}
			r, err := e.round(n, tr, true)
			last = r
			if r != nil {
				traced.add(r.c)
				recov.count++
				recov.total += r.recover
				svc = addServiceStats(svc, r.svcStats)
				planner = addPlannerStats(planner, r.planner)
				journal = addWALStats(journal, r.wal)
			}
			if err != nil {
				_ = closeLast()
				return plain, err
			}
		}
	}

	linked := link(tr.spans)
	if spansPath != "" {
		if err := writeSpans(spansPath, linked); err != nil {
			_ = closeLast()
			return plain, err
		}
	}
	m := plain.layer
	spanMetrics(m, selfTimes(linked), linked, tr.results, traced)
	counterMetrics(m, svc, planner, journal)
	m["plan.recover_ms"] = ms(recov.mean())
	m["trace.overhead_frac"] = 1 - (float64(traced.ops)/traced.busy(true).Seconds())/(float64(plain.ops)/plain.busy(true).Seconds())

	// The tail needs every sample the run has; a span costs a traced submit
	// microseconds of its milliseconds.
	sub := sorted(append(plain.lat(opSubmit, false), traced.lat(opSubmit, false)...))
	m["client.samples"] = float64(len(sub))
	if tailSupported(len(sub), 0.95) {
		m["client.submit_p95_ms"] = ms(quantile(sub, 0.95))
	}
	if tailSupported(len(sub), 0.99) {
		m["client.submit_p99_ms"] = ms(quantile(sub, 0.99))
	}
	m["client.submit_max_ms"] = ms(quantile(sub, 1))
	// Per-layer times are as measured. These three tie them to the gated
	// ones, which are scaled by refNominal over what the kernel took.
	m["client.submit_p50_raw_ms"] = ms(plain.p50(opSubmit, false))
	m["client.ops_per_s_raw"] = float64(plain.ops) / plain.busy(false).Seconds()
	var refs []time.Duration
	for _, s := range append(plain.samples, traced.samples...) {
		refs = append(refs, s.ref)
	}
	m["machine.ref_kernel_us"] = us(quantile(sorted(refs), 0.5))
	m["client.remove_p50_ms"] = ms(plain.p50(opRemove, false))
	m["client.read_p50_ms"] = ms(plain.p50(opRead, false))
	m["client.repair_fail_p50_ms"] = ms(plain.p50(opFail, false))
	m["client.restore_p50_ms"] = ms(plain.p50(opRestore, false))

	perr := e.probe(m, last, medianWrite(linked))
	if err := closeLast(); perr == nil {
		perr = err
	}
	plain.ops += traced.ops
	plain.failed += traced.failed
	plain.wall += traced.wall
	plain.kernel += traced.kernel
	plain.rounds += traced.rounds
	return plain, perr
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanMetrics turns span sums into per-call means, and checks that the self
// times of all layers add up to what the client saw.
func spanMetrics(m map[string]float64, lt map[string]*layerTime, linked []span, results []plan.Result, traced *aggregate) {
	m["net.self_us"] = us(lt[spanClient].meanSelf())
	m["serve.handler_us"] = us(lt[spanHandler].mean())
	m["serve.self_us"] = us(lt[spanHandler].meanSelf())
	m["plan.service_us"] = us(lt[spanService].mean())
	m["plan.self_us"] = us(lt[spanService].meanSelf())
	m["plan.export_state_us"] = us(lt[spanExport].mean())
	m["plan.diff_encode_us"] = us(lt[spanDiffEnc].mean())
	m["core.submit_ms"] = ms(lt[spanSubmit].mean())
	m["core.remove_us"] = us(lt[spanRemove].mean())
	m["core.repair_fail_ms"] = ms(lt[spanFail].mean())
	m["core.repair_recover_ms"] = ms(lt[spanRecover].mean())
	m["wal.fs_write_us"] = us(lt[spanFSWrite].mean())
	m["wal.fs_sync_us"] = us(lt[spanFSSync].mean())
	if w := lt[spanFSWrite]; w != nil {
		m["wal.fs_writes"] = float64(w.count)
	}
	if y := lt[spanFSSync]; y != nil {
		m["wal.fs_syncs"] = float64(y.count)
	}

	var solves []time.Duration
	for i := range linked {
		if linked[i].Name == spanSubmit && linked[i].Req != 0 {
			solves = append(solves, linked[i].dur())
		}
	}
	m["core.submit_p50_ms"] = ms(quantile(sorted(solves), 0.5))

	var fresh, hits, vars, free int
	for _, r := range results {
		if r.AlreadyAdmitted {
			continue
		}
		fresh++
		vars += r.ModelVars
		free += r.FreeStreams
		if r.PlanTime >= solveTimeout*95/100 {
			hits++
		}
	}
	m["core.budget_hit_frac"] = ratio(hits, fresh)
	m["core.model_vars_mean"] = ratio(vars, fresh)
	m["core.free_streams_mean"] = ratio(free, fresh)

	var sum time.Duration
	for _, t := range lt {
		sum += t.self
	}
	m["trace.stage_sum_frac"] = float64(sum) / float64(traced.wall-traced.kernel)
}

// counterMetrics reports what the program already counts about itself,
// summed over the traced rounds.
func counterMetrics(m map[string]float64, svc plan.ServiceStats, p plan.Stats, w wal.Stats) {
	m["plan.solves"] = float64(svc.Solves)
	m["plan.batched_submits"] = float64(svc.BatchedSubmits)
	m["plan.queue_full"] = float64(svc.QueueFull)
	m["plan.expired"] = float64(svc.Expired)
	m["core.rejections"] = float64(p.Rejections)
	m["core.timeouts"] = float64(p.Timeouts)
	m["core.stalls"] = float64(p.Stalls)
	m["milp.nodes_per_solve"] = ratio(p.TotalNodes, p.Submissions)
	m["milp.cuts_per_solve"] = ratio(p.TotalCuts, p.Submissions)
	m["milp.fixings_per_solve"] = ratio(p.TotalFixings, p.Submissions)
	m["milp.presolve_fixed_per_solve"] = ratio(p.TotalPresolveFixed, p.Submissions)
	m["lp.iters_per_solve"] = ratio(p.TotalLPIters, p.Submissions)
	m["lp.refactors_per_solve"] = ratio(p.Factor.Refactors, p.Submissions)
	m["lp.drift_rebuilds"] = float64(p.Factor.DriftRebuilds)
	m["lp.eta_peak"] = float64(p.Factor.PeakEtas)
	m["lp.fill_ratio"] = p.Factor.FillRatio
	m["wal.appends"] = float64(w.Appends)
	m["wal.snapshots"] = float64(w.Snapshots)
	m["wal.rotations"] = float64(w.Rotations)
}

func addServiceStats(a, b plan.ServiceStats) plan.ServiceStats {
	a.Solves += b.Solves
	a.BatchedSubmits += b.BatchedSubmits
	a.QueueFull += b.QueueFull
	a.Expired += b.Expired
	return a
}

func addPlannerStats(a, b plan.Stats) plan.Stats {
	a.Submissions += b.Submissions
	a.Rejections += b.Rejections
	a.TotalNodes += b.TotalNodes
	a.TotalLPIters += b.TotalLPIters
	a.TotalCuts += b.TotalCuts
	a.TotalFixings += b.TotalFixings
	a.TotalPresolveFixed += b.TotalPresolveFixed
	a.Timeouts += b.Timeouts
	a.Stalls += b.Stalls
	a.Factor.Merge(b.Factor)
	return a
}

func addWALStats(a, b wal.Stats) wal.Stats {
	a.Appends += b.Appends
	a.Snapshots += b.Snapshots
	a.Rotations += b.Rotations
	return a
}

// medianWrite is the median size of the journal's record writes (frame
// headers, which are 16 bytes, aside); the append probes write records of
// that size.
func medianWrite(linked []span) int {
	var sizes []int
	for i := range linked {
		if linked[i].Name == spanFSWrite && linked[i].Req != 0 && linked[i].Bytes > 16 {
			sizes = append(sizes, linked[i].Bytes)
		}
	}
	if len(sizes) == 0 {
		return 512
	}
	sort.Ints(sizes)
	return sizes[len(sizes)/2]
}

// timeLoop returns the mean time of n calls of f.
func timeLoop(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// probe times public functions of each layer directly, in plain loops, at
// the state the last round left behind. They say what a layer costs on its
// own, where the spans say what it cost inside a request.
func (e *env) probe(m map[string]float64, last *roundResult, recordBytes int) error {
	in := last.in
	m["wal.bytes_per_append"] = float64(recordBytes)

	// serve: two read endpoints the scripts do not call.
	c := newClient(in, e.ref, nil)
	defer c.hc.CloseIdleConnections()
	for _, ep := range []struct{ metric, path string }{
		{"serve.get_admitted_us", "/v1/admitted"},
		{"serve.get_metrics_us", "/metrics"},
	} {
		var err error
		d := timeLoop(50, func() {
			if _, e := c.roundTrip("GET", ep.path, nil); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("probe GET %s: %w", ep.path, err)
		}
		m[ep.metric] = us(d)
	}

	// plan: what journaling one change costs at this state, piece by piece.
	var start plan.State
	if err := json.Unmarshal(e.snapshot, &start); err != nil {
		return err
	}
	sys, _ := e.sp.generate()
	bare := newPlanner(sys)
	final := plan.State{Assignment: in.svc.Assignment(), Admitted: last.final, Hosts: start.Hosts}
	if err := bare.ImportState(final); err != nil {
		return fmt.Errorf("probe: importing the final state: %w", err)
	}
	final = bare.ExportState()
	m["plan.diff_us"] = us(timeLoop(100, func() { plan.Diff(start, final) }))
	var encoded []byte
	m["plan.state_marshal_us"] = us(timeLoop(20, func() { encoded, _ = json.Marshal(final) }))
	m["plan.state_bytes"] = float64(len(encoded))

	// dsps: the O(admitted state) passes every submit and remove makes.
	a := final.Assignment
	m["dsps.admitted"] = float64(len(final.Admitted))
	m["dsps.clone_us"] = us(timeLoop(100, func() { a.Clone() }))
	var verr error
	m["dsps.validate_us"] = us(timeLoop(50, func() { verr = a.Validate(sys) }))
	if verr != nil {
		return fmt.Errorf("probe: final assignment infeasible: %w", verr)
	}
	m["dsps.compute_usage_us"] = us(timeLoop(100, func() { a.ComputeUsage(sys) }))
	clones := make([]*dsps.Assignment, 50)
	for i := range clones {
		clones[i] = a.Clone()
	}
	i := 0
	m["dsps.gc_us"] = us(timeLoop(len(clones), func() { clones[i].GarbageCollect(sys); i++ }))

	// core: a drain forces a migration-minimal re-plan of everything on
	// the host, the most expensive single call the planner has. Only the
	// small-cluster churn state is probed; elsewhere the metric reads 0.
	if e.sp.name == "steady_churn" {
		var total time.Duration
		const drains = 5
		for h := 0; h < drains; h++ {
			t0 := time.Now()
			if _, err := bare.Repair(context.Background(), []plan.Event{plan.DrainHost(dsps.HostID(h))}); err != nil {
				return fmt.Errorf("probe: drain host %d: %w", h, err)
			}
			total += time.Since(t0)
			if _, err := bare.Repair(context.Background(), []plan.Event{plan.RecoverHost(dsps.HostID(h))}); err != nil {
				return fmt.Errorf("probe: recover host %d: %w", h, err)
			}
		}
		m["core.repair_drain_ms"] = ms(total / drains)
	}

	if err := e.probeWAL(m, recordBytes); err != nil {
		return err
	}
	m["milp.node_probe_us"] = us(probeMILP())
	m["lp.resolve_probe_us"] = us(probeLP())
	return nil
}

// probeWAL times appends of one record size under each fsync policy, and
// recovery of a thousand-record journal, in directories of its own.
func (e *env) probeWAL(m map[string]float64, recordBytes int) error {
	record := make([]byte, recordBytes)
	for i := range record {
		record[i] = byte('a' + i%26)
	}
	fill := func(dir string, policy wal.SyncPolicy, n int) (time.Duration, error) {
		fs, err := wal.DirFS(dir)
		if err != nil {
			return 0, err
		}
		log, _, err := wal.Open(fs, wal.Options{Sync: policy})
		if err != nil {
			return 0, err
		}
		d := timeLoop(n, func() {
			if _, e := log.Append(record); e != nil {
				err = e
			}
		})
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		return d, err
	}
	for _, p := range []struct {
		metric string
		policy wal.SyncPolicy
	}{
		{"wal.append_always_us", wal.SyncAlways},
		{"wal.append_every_us", wal.SyncEvery},
		{"wal.append_never_us", wal.SyncNever},
	} {
		dir := filepath.Join(e.tmp, "probe-"+p.policy.String())
		d, err := fill(dir, p.policy, 2000)
		_ = os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("probe: wal append (%v): %w", p.policy, err)
		}
		m[p.metric] = us(d)
	}
	dir := filepath.Join(e.tmp, "probe-recover")
	defer os.RemoveAll(dir)
	if _, err := fill(dir, wal.SyncNever, 1000); err != nil {
		return fmt.Errorf("probe: wal fill: %w", err)
	}
	fs, err := wal.DirFS(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	log, rec, err := wal.Open(fs, wal.Options{})
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("probe: wal recover: %w", err)
	}
	if len(rec.Entries) != 1000 {
		return fmt.Errorf("probe: wal recovered %d of 1000 records", len(rec.Entries))
	}
	m["wal.recover_1k_ms"] = ms(d)
	return log.Close()
}

// probeMILP solves the knapsack-with-conflicts model of BenchmarkMILPNode
// and returns the mean time per branch-and-bound node.
func probeMILP() time.Duration {
	rng := rand.New(rand.NewSource(9))
	const n = 40
	mod := milp.NewModel()
	vars := make([]milp.Var, n)
	obj := make([]milp.Term, n)
	weights := make([]milp.Term, n)
	for i := 0; i < n; i++ {
		vars[i] = mod.AddBinary("x")
		obj[i] = milp.Term{Var: vars[i], Coef: 1 + rng.Float64()*14}
		weights[i] = milp.Term{Var: vars[i], Coef: 1 + rng.Float64()*9}
	}
	mod.SetObjective(true, obj...)
	mod.AddCons("cap", milp.LE, float64(2*n), weights...)
	for i := 0; i+1 < n; i += 3 {
		mod.AddCons("pair", milp.LE, 1, milp.Term{Var: vars[i], Coef: 1}, milp.Term{Var: vars[i+1], Coef: 1})
	}
	nodes := 0
	start := time.Now()
	for i := 0; i < 20; i++ {
		nodes += mod.Solve(milp.Options{MaxNodes: 100000}).Nodes
	}
	return time.Since(start) / time.Duration(max(nodes, 1))
}

// probeLP runs the warm Fix/ReSolve/Unfix/ReSolve loop of BenchmarkLPResolve
// on its 120-variable, 90-row problem and returns the mean time per pair of
// re-solves.
func probeLP() time.Duration {
	rng := rand.New(rand.NewSource(5))
	const n, rows = 120, 90
	p := &lp.Problem{NumVars: n, Cost: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.Float64()*4 - 2
		p.Upper[j] = 1
	}
	for i := 0; i < rows; i++ {
		terms := make([]lp.Term, 0, 6)
		for k := 0; k < 2+rng.Intn(5); k++ {
			terms = append(terms, lp.Term{Var: rng.Intn(n), Coef: rng.Float64()*2 - 0.5})
		}
		p.Cons = append(p.Cons, lp.Constraint{Terms: terms, Sense: lp.LE, RHS: 0.5 + rng.Float64()*3})
	}
	s := lp.NewSolver()
	s.SetLazy(true)
	if err := s.Load(p); err != nil {
		return 0
	}
	s.ReSolve(lp.Options{})
	s.SaveBasis()
	i := 0
	return timeLoop(2000, func() {
		j := i % n
		s.Fix(j, i%2 == 0)
		s.ReSolve(lp.Options{})
		s.Unfix(j)
		s.ReSolve(lp.Options{})
		i++
	})
}
