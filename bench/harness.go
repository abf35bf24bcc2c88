package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/wal"
)

// solveTimeout is the daemon's per-call solver budget (sim.DefaultDeployScale).
const solveTimeout = 150 * time.Millisecond

// newPlanner configures the core planner exactly as `sqpr-cluster -serve`.
func newPlanner(sys *dsps.System) *core.Planner {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = solveTimeout
	cfg.MaxCandidateHosts = 8
	cfg.MaxFreeStreams = 30
	cfg.SolveWorkers = 1
	return core.NewPlanner(sys, cfg)
}

// env is everything about a run that is fixed before the first round: the
// workload, its seed, and the prefilled state every round restarts from.
type env struct {
	sp   *spec
	seed int64
	tmp  string // parent of the per-round journal directories
	ref  *refKernel

	seq      []dsps.StreamID // generated query sequence
	pop      []dsps.StreamID // its distinct members
	initial  []dsps.StreamID // admitted by the prefill, sorted
	snapshot []byte          // prefilled plan.State as JSON
	rounds   int             // journal directories handed out so far
}

// prefill admits the first sp.prefill distinct queries on a bare planner and
// keeps the resulting state as the snapshot each round's journal is seeded
// with, so rounds recover it instead of solving for it again. clk laps after
// every step.
func (e *env) prefill(clk *lapClock) error {
	sys, seq := e.sp.generate()
	e.seq, e.pop = seq, distinct(seq)
	p := newPlanner(sys)
	clk.lap()
	for _, q := range e.pop[:e.sp.prefill] {
		if _, err := p.Submit(context.Background(), q); err != nil {
			return fmt.Errorf("prefill submit %d: %w", q, err)
		}
		clk.lap()
	}
	st := p.ExportState()
	e.initial = st.Admitted
	var err error
	e.snapshot, err = json.Marshal(st)
	return err
}

// instance is the daemon's stack hosted in-process: core planner → durable
// plan.Service over a real directory (SyncAlways) → serve.Server behind an
// http.Server on a loopback listener.
type instance struct {
	sys     *dsps.System
	svc     *plan.Service
	dir     string
	url     string
	hs      *http.Server
	served  chan error
	recover time.Duration // the OpenService call
}

// open seeds a fresh journal directory with the prefill snapshot and brings
// the stack up on it. tr, when non-nil, decorates planner, filesystem and
// handler with spans.
func (e *env) open(tr *tracer) (*instance, error) {
	e.rounds++
	in := &instance{dir: filepath.Join(e.tmp, fmt.Sprintf("journal-%d", e.rounds))}
	fs, err := wal.DirFS(in.dir)
	if err != nil {
		return nil, err
	}
	if err := seedJournal(fs, e.snapshot); err != nil {
		return nil, err
	}
	in.sys, _ = e.sp.generate()
	var p plan.QueryPlanner = newPlanner(in.sys)
	if tr != nil {
		fs = &tracedFS{FS: fs, tr: tr}
		p = newTracedPlanner(p, tr)
	}
	start := time.Now()
	svc, rs, err := plan.OpenService(p, plan.ServiceConfig{}, fs, wal.Options{})
	in.recover = time.Since(start)
	if err != nil {
		return nil, err
	}
	in.svc = svc
	if rs.Admitted != len(e.initial) {
		svc.Close()
		return nil, fmt.Errorf("recovered %d admitted queries from the seeded journal, prefill admitted %d", rs.Admitted, len(e.initial))
	}
	srv, err := serve.New(serve.Config{Service: svc, System: in.sys})
	if err != nil {
		svc.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h, svc)
	}
	in.url = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: h}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	return in, nil
}

// seedJournal writes snapshot as the journal's state at sequence 0.
func seedJournal(fs wal.FS, snapshot []byte) error {
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return err
	}
	if err := log.WriteSnapshot(snapshot); err != nil {
		return err
	}
	return log.Close()
}

// close stops the listener, waits for the serve goroutine, and closes the
// service (which flushes and closes the journal). The directory stays for
// the recovery check; remove deletes it.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	in.svc.Close()
	return err
}

func (in *instance) remove() { _ = os.RemoveAll(in.dir) }

// Op kinds the client times separately.
const (
	opSubmit   = "submit"   // fresh submit: the query was not admitted before
	opResubmit = "resubmit" // submit of an already admitted query (answered without a solve)
	opRemove   = "remove"
	opRead     = "read"
	opFail     = "repair_fail"
	opRecover  = "repair_recover"
	opRestore  = "restore" // a whole host-failure cycle; not an op of its own
)

// sample is one timed request: how long the client waited for it, and how
// long the reference kernel took around it (the mean of the run before and
// the run after).
type sample struct {
	kind string
	lat  time.Duration
	ref  time.Duration
}

// time is the sample's latency, as measured or scaled to the reference
// machine.
func (s sample) time(scaled bool) time.Duration {
	if scaled {
		return scale(s.lat, s.ref)
	}
	return s.lat
}

// client drives one instance from one goroutine over one keep-alive
// connection, closed loop, and is the script's target. Between requests, off
// the clock, it runs the reference kernel.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	ref  *refKernel

	samples   []sample      // every answered request, in order
	lastRef   time.Duration // the kernel's latest run, 0 before the first
	ops       int           // requests sent
	failed    int           // requests answered non-2xx or failing in transport
	fresh     int           // fresh submits attempted
	admitted  int           // fresh submits admitted
	wall      time.Duration // the script from first to last request, kernel runs included
	kernel    time.Duration // of which in the reference kernel
	cycleFrom int           // first sample of the running host-failure cycle
	err       error         // first check failure

	sys *dsps.System
}

func newClient(in *instance, ref *refKernel, tr *tracer) *client {
	return &client{
		base: in.url,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		tr:  tr,
		ref: ref,
		sys: in.sys,
	}
}

func (c *client) fail1(err error) {
	if c.err == nil {
		c.err = err
	}
}

// call sends one request and returns the response body (nil on failure); the
// round trip is timed from before the request is built until the body has
// been read. The caller then books it under the op kind, which for a submit
// is only known from the reply.
func (c *client) call(method, path string, body any) (data []byte, book func(kind string)) {
	if c.lastRef == 0 {
		c.lastRef = c.ref.run()
		c.kernel += c.lastRef
	}
	start := time.Now()
	id := c.tr.begin()
	data, err := c.roundTrip(method, path, body)
	d := time.Since(start)
	c.ops++
	before := c.lastRef
	c.lastRef = c.ref.run()
	c.kernel += c.lastRef
	return data, func(kind string) {
		c.tr.end(id, kind, start, d)
		if err != nil {
			c.failed++
			c.fail1(fmt.Errorf("%s %s: %w", method, path, err))
			return
		}
		c.samples = append(c.samples, sample{kind: kind, lat: d, ref: (before + c.lastRef) / 2})
	}
}

func (c *client) do(kind, method, path string, body any) []byte {
	data, book := c.call(method, path, body)
	book(kind)
	return data
}

func (c *client) roundTrip(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// decode unmarshals a response the script's next step depends on.
func (c *client) decode(data []byte, into any) {
	if data == nil {
		return
	}
	if err := json.Unmarshal(data, into); err != nil {
		c.fail1(fmt.Errorf("decoding response: %w", err))
	}
}

func (c *client) submit(q dsps.StreamID) bool {
	var r struct {
		Admitted        bool `json:"admitted"`
		AlreadyAdmitted bool `json:"already_admitted"`
	}
	data, book := c.call("POST", "/v1/submit", map[string]any{"query": q})
	c.decode(data, &r)
	if r.AlreadyAdmitted {
		book(opResubmit)
		return true
	}
	book(opSubmit)
	c.fresh++
	if r.Admitted {
		c.admitted++
	}
	return r.Admitted
}

func (c *client) remove(q dsps.StreamID) {
	c.do(opRemove, "POST", "/v1/remove", map[string]any{"query": q})
}

func (c *client) read() {
	if data := c.do(opRead, "GET", "/v1/assignment", nil); data != nil && len(data) == 0 {
		c.fail1(errors.New("GET /v1/assignment: empty body"))
	}
}

type event struct {
	Kind string      `json:"kind"`
	Host dsps.HostID `json:"host"`
}

func (c *client) fail(h dsps.HostID) []dsps.StreamID {
	c.cycleFrom = len(c.samples)
	var r struct {
		Dropped []dsps.StreamID `json:"dropped"`
	}
	c.decode(c.do(opFail, "POST", "/v1/repair", map[string]any{"events": []event{{"fail", h}}}), &r)
	return r.Dropped
}

func (c *client) recover(h dsps.HostID) {
	c.do(opRecover, "POST", "/v1/repair", map[string]any{"events": []event{{"recover", h}}})
}

// cycleDone books the host-failure cycle as a sample of its own: the sum of
// its requests, against the mean of the kernel runs around them.
func (c *client) cycleDone() {
	cycle := c.samples[c.cycleFrom:]
	if len(cycle) == 0 {
		return
	}
	sm := sample{kind: opRestore}
	for _, s := range cycle {
		sm.lat += s.lat
		sm.ref += s.ref
	}
	sm.ref /= time.Duration(len(cycle))
	c.samples = append(c.samples, sm)
}

// check compares the service's view with the script's model and validates
// the served assignment against the system, over the same HTTP API but
// untimed and uncounted.
func (c *client) check(model []dsps.StreamID) {
	var adm struct {
		Count   int             `json:"count"`
		Queries []dsps.StreamID `json:"queries"`
	}
	data, err := c.roundTrip("GET", "/v1/admitted", nil)
	if err != nil {
		c.fail1(fmt.Errorf("GET /v1/admitted: %w", err))
		return
	}
	c.decode(data, &adm)
	if adm.Count != len(model) || !equalIDs(adm.Queries, model) {
		c.fail1(fmt.Errorf("service admits %d queries, the client's model %d, or the sets differ", adm.Count, len(model)))
	}
	data, err = c.roundTrip("GET", "/v1/assignment", nil)
	if err != nil {
		c.fail1(fmt.Errorf("GET /v1/assignment: %w", err))
		return
	}
	a, err := dsps.ReadAssignment(bytes.NewReader(data))
	if err != nil {
		c.fail1(fmt.Errorf("decoding served assignment: %w", err))
		return
	}
	if err := a.Validate(c.sys); err != nil {
		c.fail1(fmt.Errorf("served assignment infeasible: %w", err))
	}
}

func equalIDs(a, b []dsps.StreamID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundResult is what one round contributes to the run.
type roundResult struct {
	c        *client
	final    []dsps.StreamID // admitted set at the end of the round
	recover  time.Duration
	svcStats plan.ServiceStats
	planner  plan.Stats
	wal      wal.Stats
	in       *instance // still open when keep was asked for, else nil
}

// round opens a fresh instance, plays the script once, and checks the
// result: model against /v1/admitted, the served assignment against the
// system, and (after closing) recovery of the round's journal on a fresh
// planner without a single solve. keep leaves the instance open (its
// recovery check skipped) for the layer probes.
func (e *env) round(n int, tr *tracer, keep bool) (*roundResult, error) {
	in, err := e.open(tr)
	if err != nil {
		return nil, err
	}
	c := newClient(in, e.ref, tr)
	s := newScript(e.seed, n, e.pop, e.initial)
	start := time.Now()
	s.run(e.sp, e.seq, c)
	c.wall = time.Since(start)
	final := s.model()
	c.check(final)
	if !e.sp.fill {
		// The churn scripts replace what they remove; drifting away from
		// the prefill level means the workload is not the one described.
		lo, hi := len(e.initial)*8/10, len(e.initial)*12/10
		if len(final) < lo || len(final) > hi {
			c.fail1(fmt.Errorf("admitted set ended at %d, outside ±20%% of the prefill's %d", len(final), len(e.initial)))
		}
	}
	res := &roundResult{
		c: c, final: final, recover: in.recover,
		svcStats: in.svc.ServiceStats(), planner: in.svc.Stats(), wal: in.svc.WALStats(),
	}
	c.hc.CloseIdleConnections()
	if keep {
		res.in = in
		return res, c.err
	}
	defer in.remove()
	if err := in.close(); err != nil {
		return res, err
	}
	if c.err != nil {
		return res, c.err
	}
	return res, e.checkRecovery(in.dir, final)
}

// checkRecovery reopens a closed round's journal on a fresh planner: the
// admitted set must come back exactly, and without planning anything.
// Withdrawing all of it again must then leave the allocation empty.
func (e *env) checkRecovery(dir string, want []dsps.StreamID) error {
	fs, err := wal.DirFS(dir)
	if err != nil {
		return err
	}
	sys, _ := e.sp.generate()
	svc, _, err := plan.OpenService(newPlanner(sys), plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		return fmt.Errorf("reopening the round's journal: %w", err)
	}
	defer svc.Close()
	got := svc.AdmittedQueries()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !equalIDs(got, want) {
		return fmt.Errorf("journal recovers %d admitted queries, the round ended with %d, or the sets differ", len(got), len(want))
	}
	if n := svc.Stats().Submissions; n != 0 {
		return fmt.Errorf("recovery ran %d planning calls, want 0", n)
	}
	for _, q := range got {
		if err := svc.Remove(q); err != nil {
			return fmt.Errorf("draining the recovered service: %w", err)
		}
	}
	if a := svc.Assignment(); len(a.Provides)+len(a.Flows)+len(a.Ops) != 0 {
		return fmt.Errorf("everything withdrawn but the assignment keeps %d provides, %d flows, %d operators",
			len(a.Provides), len(a.Flows), len(a.Ops))
	}
	return nil
}
