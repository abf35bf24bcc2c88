package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

// fakePlanner is a minimal stateful QueryPlanner + StatePorter: it admits
// any requested stream onto the first usable host. It lets the handler
// tests exercise the HTTP surface without MILP solves; gate/entered make
// in-flight requests observable for the graceful-drain test.
type fakePlanner struct {
	mu       sync.Mutex
	sys      *dsps.System
	state    *dsps.Assignment
	admitted map[dsps.StreamID]bool
	stats    plan.Stats

	// gate, when non-nil, blocks Submit until closed; entered receives one
	// value when a Submit reaches the planner.
	gate    chan struct{}
	entered chan struct{}
}

func newFakePlanner(nHosts, nStreams int) *fakePlanner {
	hosts := make([]dsps.Host, nHosts)
	for i := range hosts {
		hosts[i] = dsps.Host{ID: dsps.HostID(i), CPU: 100, OutBW: 100, InBW: 100}
	}
	sys := dsps.NewSystem(hosts, 100)
	for i := 0; i < nStreams; i++ {
		s := sys.AddStream(1, dsps.NoOperator, "")
		sys.SetRequested(s, true)
		sys.PlaceBase(dsps.HostID(i%nHosts), s)
	}
	return &fakePlanner{
		sys:      sys,
		state:    dsps.NewAssignment(),
		admitted: make(map[dsps.StreamID]bool),
	}
}

func (f *fakePlanner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Submissions++
	cfg := plan.Apply(opts)
	res := plan.Result{Admitted: true}
	for _, s := range cfg.Queries(q) {
		if err := plan.CheckStream(f.sys, s); err != nil {
			return plan.Result{}, err
		}
		if f.admitted[s] {
			res.AlreadyAdmitted = true
			continue
		}
		f.state.SetProvide(s, dsps.HostID(0))
		f.admitted[s] = true
	}
	return res, nil
}

func (f *fakePlanner) Remove(q dsps.StreamID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.admitted[q] {
		return plan.ErrNotAdmitted
	}
	delete(f.admitted, q)
	f.state.DeleteProvide(q)
	return nil
}

func (f *fakePlanner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rr plan.RepairResult
	if err := plan.ApplyEvents(f.sys, events); err != nil {
		return rr, err
	}
	f.state.StripFailed(f.sys)
	for q := range f.admitted {
		if _, ok := f.state.Provider(q); !ok {
			delete(f.admitted, q)
			rr.Dropped = append(rr.Dropped, q)
		}
	}
	rr.Admitted = true
	return rr, nil
}

func (f *fakePlanner) Assignment() *dsps.Assignment { return f.state }

func (f *fakePlanner) Admitted(q dsps.StreamID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted[q]
}

func (f *fakePlanner) AdmittedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.admitted)
}

func (f *fakePlanner) Stats() plan.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *fakePlanner) ExportState() plan.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return plan.ExportedState(f.sys, f.state, slices.Sorted(maps.Keys(f.admitted)))
}

func (f *fakePlanner) ImportState(s plan.State) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := plan.CheckState(f.sys, s); err != nil {
		return err
	}
	plan.ApplySystemState(f.sys, s)
	f.state = s.Assignment.Clone()
	f.admitted = make(map[dsps.StreamID]bool, len(s.Admitted))
	for _, q := range s.Admitted {
		f.admitted[q] = true
	}
	return nil
}

// newTestServer builds a service over a fresh fake planner and the HTTP
// server fronting it.
func newTestServer(t *testing.T) (*fakePlanner, *plan.Service, *serve.Server) {
	t.Helper()
	f := newFakePlanner(2, 4)
	svc := plan.NewService(f, plan.ServiceConfig{})
	t.Cleanup(svc.Close)
	srv, err := serve.New(serve.Config{Service: svc, System: f.sys})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return f, svc, srv
}

// do drives one request through the route table in-process.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, into any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatalf("decoding response %q: %v", rec.Body.String(), err)
	}
}

func TestSubmitHandler(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()

	rec := do(t, h, "POST", "/v1/submit", `{"query": 0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", rec.Code, rec.Body)
	}
	var res struct {
		Query           int  `json:"query"`
		Admitted        bool `json:"admitted"`
		AlreadyAdmitted bool `json:"already_admitted"`
	}
	decode(t, rec, &res)
	if !res.Admitted || res.AlreadyAdmitted || res.Query != 0 {
		t.Fatalf("submit response %+v, want fresh admission of query 0", res)
	}

	// Resubmitting the same query reports idempotent success.
	rec = do(t, h, "POST", "/v1/submit", `{"query": 0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("resubmit: status %d", rec.Code)
	}
	decode(t, rec, &res)
	if !res.Admitted || !res.AlreadyAdmitted {
		t.Fatalf("resubmit response %+v, want already_admitted", res)
	}

	// The admitted listing reflects it.
	rec = do(t, h, "GET", "/v1/admitted", "")
	var adm struct {
		Count   int   `json:"count"`
		Queries []int `json:"queries"`
	}
	decode(t, rec, &adm)
	if adm.Count != 1 || len(adm.Queries) != 1 || adm.Queries[0] != 0 {
		t.Fatalf("admitted listing %+v, want exactly query 0", adm)
	}
}

func TestSubmitRejectsBadBodies(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()
	for _, body := range []string{`{bad json`, `{"query": 0, "bogus": 1}`} {
		if rec := do(t, h, "POST", "/v1/submit", body); rec.Code != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, rec.Code)
		}
	}
	// A body is exactly one JSON value: a second value or garbage after a
	// well-formed first one is refused on every POST route, not served as
	// the first value alone.
	for path, first := range map[string]string{
		"/v1/submit": `{"query":0}`,
		"/v1/remove": `{"query":0}`,
		"/v1/repair": `{"events":[{"kind":"drain","host":0}]}`,
	} {
		for _, tail := range []string{`{"query":1}`, ` garbage`} {
			if rec := do(t, h, "POST", path, first+tail); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %q: status %d, want 400", path, first+tail, rec.Code)
			}
		}
	}
	var adm struct {
		Count int `json:"count"`
	}
	decode(t, do(t, h, "GET", "/v1/admitted", ""), &adm)
	if adm.Count != 0 {
		t.Errorf("%d queries admitted by rejected bodies, want 0", adm.Count)
	}
	// An unknown stream is a client mistake, not a server error.
	if rec := do(t, h, "POST", "/v1/submit", `{"query": 999}`); rec.Code != http.StatusBadRequest {
		t.Errorf("submit unknown stream: status %d, want 400", rec.Code)
	}
	// A body past the 1 MiB cap is refused before it is buffered, on every
	// POST route.
	huge := `{"query": 0, "pad": "` + strings.Repeat("x", 1<<20) + `"}`
	for _, path := range []string{"/v1/submit", "/v1/remove", "/v1/repair"} {
		if rec := do(t, h, "POST", path, huge); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: status %d, want 413", path, rec.Code)
		}
	}
}

// TestAdmittedReplyIsOneSnapshot hammers GET /v1/admitted beside concurrent
// submits and removes (under -race in CI): count and queries must describe
// the same instant on every reply.
func TestAdmittedReplyIsOneSnapshot(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"query": %d}`, q)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/v1/submit", "/v1/remove"} {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", path, strings.NewReader(body)))
				}
			}
		}(q)
	}
	for i := 0; i < 2000; i++ {
		var adm struct {
			Count   int   `json:"count"`
			Queries []int `json:"queries"`
		}
		decode(t, do(t, h, "GET", "/v1/admitted", ""), &adm)
		if adm.Count != len(adm.Queries) {
			t.Fatalf("reply %d: count %d beside %d listed queries %v", i, adm.Count, len(adm.Queries), adm.Queries)
		}
	}
}

func TestRemoveHandler(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()
	if rec := do(t, h, "POST", "/v1/remove", `{"query": 0}`); rec.Code != http.StatusNotFound {
		t.Fatalf("remove unadmitted: status %d, want 404", rec.Code)
	}
	do(t, h, "POST", "/v1/submit", `{"query": 0}`)
	if rec := do(t, h, "POST", "/v1/remove", `{"query": 0}`); rec.Code != http.StatusOK {
		t.Fatalf("remove admitted: status %d, body %s", rec.Code, rec.Body)
	}
}

func TestRepairHandler(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()

	if rec := do(t, h, "POST", "/v1/repair", `{"events": []}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty repair: status %d, want 400", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/repair", `{"events": [{"kind": "explode", "host": 0}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown event kind: status %d, want 400", rec.Code)
	}

	do(t, h, "POST", "/v1/submit", `{"query": 0}`)
	rec := do(t, h, "POST", "/v1/repair", `{"events": [{"kind": "drain", "host": 0}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("drain repair: status %d, body %s", rec.Code, rec.Body)
	}
	var rr struct {
		Admitted bool  `json:"admitted"`
		Dropped  []int `json:"dropped"`
	}
	decode(t, rec, &rr)
	if !rr.Admitted || len(rr.Dropped) != 0 {
		t.Fatalf("drain repair %+v, want admitted with nothing dropped", rr)
	}
}

// TestRepairCostEvent: a cost event on the wire reaches the planner's
// system and the journal, and survives a restart; one with a negative cost
// or an operator outside the table is answered 400 and journals nothing.
func TestRepairCostEvent(t *testing.T) {
	fs := walfault.New()
	newPlanner := func() *fakePlanner {
		f := newFakePlanner(2, 4)
		f.sys.AddOperator([]dsps.StreamID{0}, 1, 2, "op")
		return f
	}
	f := newPlanner()
	svc, _, err := plan.OpenService(f, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	srv, err := serve.New(serve.Config{Service: svc})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	h := srv.Handler()

	if rec := do(t, h, "POST", "/v1/repair", `{"events": [{"kind": "cost", "op": 0, "cost": 3.5}]}`); rec.Code != http.StatusOK {
		t.Fatalf("cost repair: status %d, body %s", rec.Code, rec.Body)
	}
	appends := svc.WALStats().Appends
	if appends != 1 {
		t.Fatalf("cost repair journaled %d records, want 1", appends)
	}
	for _, body := range []string{
		`{"events": [{"kind": "cost", "op": 0, "cost": -1}]}`,
		`{"events": [{"kind": "fail", "host": 1}, {"kind": "cost-drifted", "op": 1, "cost": 1}]}`,
	} {
		if rec := do(t, h, "POST", "/v1/repair", body); rec.Code != http.StatusBadRequest {
			t.Errorf("repair %s: status %d, want 400", body, rec.Code)
		}
	}
	if got := svc.WALStats().Appends; got != appends || f.sys.Operators[0].Cost != 3.5 || f.sys.Hosts[1].State != dsps.HostUp {
		t.Fatalf("refused repairs changed something: %d records, cost %v, host 1 %v",
			got, f.sys.Operators[0].Cost, f.sys.Hosts[1].State)
	}
	svc.Close()

	f2 := newPlanner()
	svc2, _, err := plan.OpenService(f2, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	if got := f2.sys.Operators[0].Cost; got != 3.5 {
		t.Fatalf("recovered cost %v, want 3.5", got)
	}
}

func TestQueriesAndAssignmentHandlers(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()

	rec := do(t, h, "GET", "/v1/queries", "")
	var qs struct {
		Queries []int `json:"queries"`
	}
	decode(t, rec, &qs)
	if len(qs.Queries) != 4 {
		t.Fatalf("queries listing %+v, want the 4 requested streams", qs)
	}
	if rec := do(t, h, "GET", "/v1/assignment", ""); rec.Code != http.StatusOK {
		t.Fatalf("assignment: status %d", rec.Code)
	}
}

// TestAssignmentBodyIsTheWireEncoding: GET /v1/assignment serves the
// allocation's own compact encoding, newline-terminated, and it decodes to
// the service's allocation.
func TestAssignmentBodyIsTheWireEncoding(t *testing.T) {
	f, svc, srv := newTestServer(t)
	h := srv.Handler()
	for _, q := range []string{`{"query": 0}`, `{"query": 2}`} {
		if rec := do(t, h, "POST", "/v1/submit", q); rec.Code != http.StatusOK {
			t.Fatalf("submit %s: status %d", q, rec.Code)
		}
	}
	f.mu.Lock()
	f.state.AddFlow(dsps.Flow{From: 0, To: 1, Stream: 2})
	f.state.AddOp(dsps.Placement{Host: 1, Op: 0})
	f.mu.Unlock()

	rec := do(t, h, "GET", "/v1/assignment", "")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("assignment: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "}\n") || strings.Count(body, "\n") != 1 {
		t.Fatalf("assignment body is not compact and newline-terminated: %q", body)
	}
	var got dsps.Assignment
	decode(t, rec, &got)
	want := svc.Assignment()
	if !slices.Equal(got.Provides, want.Provides) || !slices.Equal(got.Flows, want.Flows) || !slices.Equal(got.Ops, want.Ops) {
		t.Fatalf("served assignment %+v, service holds %+v", got, want)
	}
	if len(want.Provides) != 2 || len(want.Flows) != 1 || len(want.Ops) != 1 {
		t.Fatalf("service allocation %+v, want 2 provides, 1 flow, 1 placement", want)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	_, _, srv := newTestServer(t)
	h := srv.Handler()
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz: status %d", rec.Code)
	}
	srv.StartDrain()
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", rec.Code)
	}
	// Draining gates readiness only: liveness and the API keep serving so
	// in-flight work can finish.
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/submit", `{"query": 1}`); rec.Code != http.StatusOK {
		t.Fatalf("submit while draining: status %d", rec.Code)
	}
}

// TestWedgedServiceAnswers503 pins the WAL-wedge contract on the wire: a
// journal failure turns every state-changing route into a 503, flips
// /readyz to 503 and raises sqpr_wal_wedged — while reads keep serving.
func TestWedgedServiceAnswers503(t *testing.T) {
	fs := walfault.New()
	f := newFakePlanner(2, 4)
	svc, _, err := plan.OpenService(f, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	defer svc.Close()
	srv, err := serve.New(serve.Config{Service: svc})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	h := srv.Handler()

	if rec := do(t, h, "POST", "/v1/submit", `{"query": 0}`); rec.Code != http.StatusOK {
		t.Fatalf("healthy submit: status %d, body %s", rec.Code, rec.Body)
	}

	// The next journal append dies mid-write; the service wedges.
	fs.CrashAt(wal.CrashAppendMidFrame, 1)
	if rec := do(t, h, "POST", "/v1/submit", `{"query": 1}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit across journal failure: status %d, want 503", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/remove", `{"query": 0}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("remove on wedged service: status %d, want 503", rec.Code)
	}
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on wedged service: status %d, want 503", rec.Code)
	}
	// Reads and telemetry still serve; the wedge is visible in /metrics.
	if rec := do(t, h, "GET", "/v1/admitted", ""); rec.Code != http.StatusOK {
		t.Fatalf("admitted on wedged service: status %d", rec.Code)
	}
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics on wedged service: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "sqpr_wal_wedged 1") {
		t.Fatal("metrics do not report sqpr_wal_wedged 1 on a wedged service")
	}
}

// TestGracefulDrainCompletesInFlight drives the full shutdown sequence over
// a real listener: an in-flight submit is parked inside the planner, the
// drain starts, http.Server.Shutdown waits it out, the reply arrives intact,
// and the exit path leaves a journal the next boot can recover the admission
// from.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	fs := walfault.New()
	f := newFakePlanner(2, 4)
	f.gate = make(chan struct{})
	f.entered = make(chan struct{}, 1)
	svc, _, err := plan.OpenService(f, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	srv, err := serve.New(serve.Config{Service: svc})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	type outcome struct {
		status int
		err    error
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(`{"query": 0}`))
		if err != nil {
			inflight <- outcome{err: err}
			return
		}
		resp.Body.Close()
		inflight <- outcome{status: resp.StatusCode}
	}()

	// The submit is now parked inside the planner: start the drain.
	<-f.entered
	srv.StartDrain()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", resp.StatusCode)
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- hs.Shutdown(ctx)
	}()
	// Release the parked planner call; the in-flight request must complete
	// even though shutdown is underway.
	close(f.gate)
	got := <-inflight
	if got.err != nil || got.status != http.StatusOK {
		t.Fatalf("in-flight submit during drain: %+v, want 200", got)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Exit path: flush and close the journal, then prove the admission is
	// durable by recovering a fresh planner from it.
	if err := svc.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL on exit: %v", err)
	}
	svc.Close()
	f2 := newFakePlanner(2, 4)
	svc2, rs, err := plan.OpenService(f2, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer svc2.Close()
	if rs.Admitted != 1 || !f2.Admitted(dsps.StreamID(0)) {
		t.Fatalf("recovered %d admitted (%+v), want the drained-through submit", rs.Admitted, rs)
	}
}

func TestNewRequiresService(t *testing.T) {
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Fatal("serve.New accepted a nil Service")
	}
}

// TestStatusMapping pins the error → HTTP status contract for closed
// services (the drain exit path races clients).
func TestStatusMapping(t *testing.T) {
	f := newFakePlanner(2, 4)
	svc := plan.NewService(f, plan.ServiceConfig{})
	srv, err := serve.New(serve.Config{Service: svc})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	svc.Close()
	rec := do(t, srv.Handler(), "POST", "/v1/submit", `{"query": 0}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit on closed service: status %d, want 503", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	decode(t, rec, &body)
	if !strings.Contains(body.Error, plan.ErrServiceClosed.Error()) {
		t.Fatalf("closed-service error body %q does not carry %q", body.Error, plan.ErrServiceClosed)
	}
}
