package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// recorder is a script target that writes down what it is asked to do and
// answers from a fixed rule, so the request sequence is the script's alone.
type recorder struct {
	bytes.Buffer
	admitted map[dsps.StreamID]bool
}

func (r *recorder) submit(q dsps.StreamID) bool {
	fmt.Fprintf(r, "submit %d\n", q)
	if q%3 != 0 {
		r.admitted[q] = true
	}
	return r.admitted[q]
}
func (r *recorder) remove(q dsps.StreamID) {
	fmt.Fprintf(r, "remove %d\n", q)
	delete(r.admitted, q)
}
func (r *recorder) read() { fmt.Fprintln(r, "read") }
func (r *recorder) fail(h dsps.HostID) []dsps.StreamID {
	fmt.Fprintf(r, "fail %d\n", h)
	var dropped []dsps.StreamID
	for q := range r.admitted {
		if int(q)%7 == int(h)%7 {
			dropped = append(dropped, q)
		}
	}
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	for _, q := range dropped {
		delete(r.admitted, q)
	}
	return dropped
}
func (r *recorder) recover(h dsps.HostID)           { fmt.Fprintf(r, "recover %d\n", h) }
func (r *recorder) cycleDone()                      { fmt.Fprintln(r, "cycle done") }
func record(sp *spec, seed int64, round int) []byte { return recordWith(sp, seed, round, nil) }

func recordWith(sp *spec, seed int64, round int, model *[]dsps.StreamID) []byte {
	_, seq := sp.generate()
	pop := distinct(seq)
	initial := pop[:sp.prefill]
	r := &recorder{admitted: make(map[dsps.StreamID]bool)}
	for _, q := range initial {
		r.admitted[q] = true
	}
	s := newScript(seed, round, pop, initial)
	s.run(sp, seq, r)
	if model != nil {
		*model = s.model()
	}
	return r.Bytes()
}

func TestScriptIsAFunctionOfSeedAndRound(t *testing.T) {
	for _, name := range []string{"fill_to_saturation", "steady_churn", "host_churn"} {
		sp := specByName(name)
		a, b := record(sp, 1, 1), record(sp, 1, 1)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed and round gave two different scripts (%d and %d bytes)", name, len(a), len(b))
		}
		if bytes.Equal(a, record(sp, 2, 1)) {
			t.Errorf("%s: seeds 1 and 2 gave the same script", name)
		}
		if bytes.Equal(a, record(sp, 1, 2)) {
			t.Errorf("%s: rounds 1 and 2 of one seed gave the same script", name)
		}
	}
}

func TestChurnSubmitsEachPoolQueryOnceAndKeepsTheLevel(t *testing.T) {
	sp := specByName("host_churn")
	var model []dsps.StreamID
	out := recordWith(sp, 5, 1, &model)
	if n := bytes.Count(out, []byte("fail ")); n != sp.steps/sp.failEvery {
		t.Errorf("%d host failures in %d steps, want one every %d", n, sp.steps, sp.failEvery)
	}
	if len(model) > sp.prefill {
		t.Errorf("the script's model grew to %d admitted, past the prefill's %d", len(model), sp.prefill)
	}
	// Every host fails once before any fails twice.
	seen := make(map[string]bool)
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("fail ")) {
			if seen[string(line)] {
				t.Errorf("%q twice in the first %d failures of a %d-host cluster", line, len(seen), sp.sub.hosts)
			}
			seen[string(line)] = true
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
	if got := quantile(sorted([]time.Duration{9, 1, 5}), 0.5); got != 5 {
		t.Errorf("median of {9,1,5} = %d", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10}
	if got, want := quartileSpread(v), (12.125-9.875)/10.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread{3,1,2} = %v, want 1", got)
	}
}

func TestAggregatePoolsRoundsAndScalesByTheReferenceKernel(t *testing.T) {
	// The first round ran while the kernel took its nominal time, the second
	// on a machine half as fast: there, two units of time count as one.
	const slow = 2 * refNominal
	a := newAggregate()
	for _, c := range []*client{
		{ops: 3, fresh: 4, admitted: 2, samples: []sample{
			{opSubmit, 1 * time.Second, refNominal}, {opSubmit, 2 * time.Second, refNominal}, {opSubmit, 3 * time.Second, refNominal}}},
		{ops: 3, fresh: 6, admitted: 6, samples: []sample{
			{opSubmit, 20 * time.Second, slow}, {opSubmit, 40 * time.Second, slow}, {opRemove, 8 * time.Second, slow},
			{opRestore, 60 * time.Second, slow}}},
	} {
		a.add(c)
	}
	if raw, scaled := a.busy(false), a.busy(true); raw != 74*time.Second || scaled != 40*time.Second {
		t.Errorf("busy %v as measured and %v scaled, want 74s and 40s (the restore cycle is a sum, not a request)", raw, scaled)
	}
	got := a.endToEnd(2 * time.Second)
	if got["ops_per_s"] != 6.0/40 || got["admitted_frac"] != 0.8 || got["setup_s"] != 2 {
		t.Errorf("pooled ops_per_s %v admitted_frac %v setup_s %v, want 0.15, 0.8, 2", got["ops_per_s"], got["admitted_frac"], got["setup_s"])
	}
	if got["submit_p50_ms"] != 3000 || a.p50(opSubmit, false) != 3*time.Second || a.p50(opRemove, true) != 4*time.Second {
		t.Errorf("scaled submit median %v ms, want that of {1,2,3,10,20} s", got["submit_p50_ms"])
	}
}

func TestFilledStopsAtTheNearestWholeRound(t *testing.T) {
	if filled(0, 0, 10) {
		t.Error("a run without a round counts as measured")
	}
	// Rounds of 4 s: after two, a third brings 10.1 s nearer and 9.9 s not.
	if filled(8*time.Second, 2, 10.1) || !filled(8*time.Second, 2, 9.9) {
		t.Error("after 2 rounds of 4 s: want another round for 10.1 s and none for 9.9 s")
	}
}

func TestLapClockScalesEachSegmentByTheKernelRunsAroundIt(t *testing.T) {
	k := newRefKernel()
	clk := &lapClock{k: k}
	clk.start()
	if clk.lastRef <= 0 {
		t.Fatal("the reference kernel took no time")
	}
	time.Sleep(20 * time.Millisecond)
	before := clk.lastRef
	clk.lap()
	lo, hi := min(before, clk.lastRef), max(before, clk.lastRef)
	if clk.scaled < scale(20*time.Millisecond, hi) || clk.scaled > scale(40*time.Millisecond, lo) {
		t.Errorf("a 20 ms segment between kernel runs of %v and %v scaled to %v", before, clk.lastRef, clk.scaled)
	}
	if scale(time.Second, 2*refNominal) != time.Second/2 || scale(time.Second, 0) != time.Second {
		t.Error("scale: twice the nominal kernel time must halve, no kernel time must leave alone")
	}
}

func TestSelfTimesAndDiffEncodeGap(t *testing.T) {
	spans := []span{
		{Req: 0, Name: spanFSWrite, Start: 0, End: 5, Bytes: 99}, // outside any request: ignored
		{Req: 1, Name: spanSubmit, Start: 200, End: 600},
		{Req: 1, Name: spanExport, Start: 610, End: 650},
		{Req: 1, Name: spanFSWrite, Start: 700, End: 710, Bytes: 16},
		{Req: 1, Name: spanFSWrite, Start: 710, End: 720, Bytes: 180},
		{Req: 1, Name: spanFSSync, Start: 720, End: 800},
		{Req: 1, Name: spanHandler, Start: 100, End: 900},
		{Req: 1, Name: spanService, Start: 150, End: 850, Derived: true},
		{Req: 1, Name: spanClient, Op: opSubmit, Start: 0, End: 1000},
		// A read: the handler does all the work itself.
		{Req: 2, Name: spanHandler, Start: 1100, End: 1400},
		{Req: 2, Name: spanClient, Op: opRead, Start: 1000, End: 1500},
	}
	linked := link(spans)
	lt := selfTimes(linked)
	want := map[string]layerTime{
		spanClient:  {count: 2, total: 1500, self: 200 + 200},
		spanHandler: {count: 2, total: 1100, self: 100 + 300},
		spanService: {count: 1, total: 700, self: 700 - 400 - 40 - 50 - 20 - 80},
		spanSubmit:  {count: 1, total: 400, self: 400},
		spanExport:  {count: 1, total: 40, self: 40},
		spanDiffEnc: {count: 1, total: 50, self: 50},
		spanFSWrite: {count: 2, total: 20, self: 20, bytes: 196},
		spanFSSync:  {count: 1, total: 80, self: 80},
	}
	for name, w := range want {
		if lt[name] == nil || *lt[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, lt[name], w)
		}
	}
	if len(lt) != len(want) {
		t.Errorf("got %d layers, want %d", len(lt), len(want))
	}
	var sum time.Duration
	for _, l := range lt {
		sum += l.self
	}
	if sum != 1500 {
		t.Errorf("self times add up to %d, the client saw 1500", sum)
	}
	if got := medianWrite(linked); got != 180 {
		t.Errorf("median record write %d bytes, want 180 (headers and out-of-request writes aside)", got)
	}
	for _, s := range linked {
		if s.Name == spanDiffEnc && (s.Start != 650 || s.End != 700 || !s.Derived || s.Parent == 0) {
			t.Errorf("diff_encode span %+v, want the derived gap 650..700 under plan.service", s)
		}
	}
}

// dirBytes returns every file of dir, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// The decorators must change nothing but the clock: the same calls through a
// wrapped and a bare planner and filesystem leave the same state and the same
// journal bytes.
func TestDecoratorsAreTransparent(t *testing.T) {
	sp := &spec{sub: substrate{hosts: 6, cpu: 10, bw: 60, link: 25, baseStreams: 40, zipf: 1}, queries: 16}
	play := func(tr *tracer) (plan.State, map[string][]byte) {
		dir := t.TempDir()
		fs, err := wal.DirFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		sys, seq := sp.generate()
		bare := newPlanner(sys)
		var p plan.QueryPlanner = bare
		if tr != nil {
			fs = &tracedFS{FS: fs, tr: tr}
			p = newTracedPlanner(p, tr)
		}
		svc, _, err := plan.OpenService(p, plan.ServiceConfig{SnapshotEvery: 8}, fs, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		pop := distinct(seq)
		for _, q := range pop {
			if _, err := svc.Submit(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		if adm := svc.AdmittedQueries(); len(adm) > 1 {
			if err := svc.Remove(adm[0]); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range []plan.Event{plan.FailHost(2), plan.RecoverHost(2)} {
			if _, err := svc.Repair(ctx, []plan.Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
		svc.Close()
		return bare.ExportState(), dirBytes(t, dir)
	}
	tr := newTracer()
	wantState, wantFiles := play(nil)
	gotState, gotFiles := play(tr)
	if len(wantState.Admitted) < 3 || len(wantFiles) < 2 {
		t.Fatalf("the script admitted %d queries into %d journal files: too little to compare", len(wantState.Admitted), len(wantFiles))
	}
	if !gotState.Equal(wantState) {
		t.Error("planner state differs behind the decorators")
	}
	if !reflect.DeepEqual(gotFiles, wantFiles) {
		t.Error("journal bytes differ behind the decorators")
	}
	names := make(map[string]bool)
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	for _, n := range []string{spanSubmit, spanRemove, spanFail, spanRecover, spanExport, spanFSWrite, spanFSSync, spanFSCreate} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// One small round through the whole stack: loopback HTTP, the client's
// model, the served assignment, and recovery of the round's journal.
func TestRoundChecksPass(t *testing.T) {
	sp := *specByName("host_churn")
	sp.steps = 4
	e := &env{sp: &sp, seed: 1, tmp: t.TempDir(), ref: newRefKernel()}
	clk := &lapClock{k: e.ref}
	clk.start()
	if err := e.prefill(clk); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, with := range []*tracer{nil, tr} {
		r, err := e.round(1, with, false)
		if err != nil {
			t.Fatal(err)
		}
		a := newAggregate()
		a.add(r.c)
		cycles := a.lat(opRestore, false)
		if r.c.failed != 0 || r.c.ops < sp.steps || len(cycles) != sp.steps/sp.failEvery {
			t.Errorf("round ran %d ops, %d failed, %d host-failure cycles", r.c.ops, r.c.failed, len(cycles))
		}
		if len(r.c.samples) != r.c.ops+len(cycles) || r.c.kernel <= 0 || r.c.kernel >= r.c.wall {
			t.Errorf("%d samples for %d ops and %d cycles; %v of the script's %v in the reference kernel", len(r.c.samples), r.c.ops, len(cycles), r.c.kernel, r.c.wall)
		}
	}
	lt := selfTimes(link(tr.spans))
	for _, n := range []string{spanClient, spanHandler, spanService, spanSubmit, spanFail, spanExport, spanDiffEnc, spanFSWrite, spanFSSync} {
		if lt[n] == nil {
			t.Errorf("traced round recorded no %s span", n)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if got := (metric{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, endToEnd[i])
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if got := (metric{name: m.Name, unit: m.Unit, better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, perLayer[i])
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v over paths %v, want go run ./bench over bench", f.Command, f.Paths)
	}
}
