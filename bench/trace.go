package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// Span names, one per layer boundary the benchmark can reach without
// touching the program: spans are recorded by decorators on public seams.
const (
	spanClient   = "client.op"         // the client's round trip
	spanHandler  = "serve.handler"     // Server.Handler().ServeHTTP
	spanService  = "plan.service"      // queue arrival to reply, from ServiceStats.TotalLatency
	spanSubmit   = "core.submit"       // QueryPlanner.Submit on the core planner
	spanRemove   = "core.remove"       // QueryPlanner.Remove
	spanFail     = "core.repair_fail"  // QueryPlanner.Repair with a host failure
	spanRecover  = "core.repair_other" // QueryPlanner.Repair with anything else (here: recoveries)
	spanExport   = "plan.export_state" // StatePorter.ExportState
	spanDiffEnc  = "plan.diff_encode"  // end of ExportState to the first journal write: Diff + json.Marshal
	spanFSWrite  = "wal.fs_write"      // wal.File.Write
	spanFSSync   = "wal.fs_sync"       // wal.File.Sync and FS.SyncDir
	spanFSCreate = "wal.fs_create"     // FS.Create, Remove and File.Close
)

// parentOf is the static nesting of the spans of one request.
var parentOf = map[string]string{
	spanHandler:  spanClient,
	spanService:  spanHandler,
	spanSubmit:   spanService,
	spanRemove:   spanService,
	spanFail:     spanService,
	spanRecover:  spanService,
	spanExport:   spanService,
	spanDiffEnc:  spanService,
	spanFSWrite:  spanService,
	spanFSSync:   spanService,
	spanFSCreate: spanService,
}

// span is one timed interval. Spans of one client request share Req; spans
// recorded outside any request (journal seeding, recovery, checks) have Req
// 0 and take no part in the attribution.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // client op kind, on client.op spans
	Start  int64  `json:"start_ns"`     // since the tracer was made
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	// Derived marks a span whose duration is measured but whose position
	// is not: plan.service is ServiceStats.TotalLatency's growth over the
	// request, centred in its handler span; plan.diff_encode is a gap
	// between two recorded spans.
	Derived bool `json:"derived,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. One client runs closed loop, so at most one
// request is in flight and "the current request" is a single number, which
// the decorators stamp on what they record. A nil *tracer records nothing.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	req     int64 // current request, 0 between requests
	lastReq int64
	results []plan.Result // every core Submit outcome, in order
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a client request and returns its id.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastReq++
	t.req = t.lastReq
	return t.req
}

// end closes the client request and records its client.op span.
func (t *tracer) end(req int64, op string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req = 0
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Req: req, Name: spanClient, Op: op, Start: int64(s), End: int64(s + d)})
}

// record adds a span for the current request.
func (t *tracer) record(name string, start time.Time, d time.Duration, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Req: t.req, Name: name, Start: int64(s), End: int64(s + d), Bytes: bytes})
}

// recordService adds the in-service span of the current request: d long,
// centred in the handler span that began at handlerStart and took handlerDur.
func (t *tracer) recordService(handlerStart time.Time, handlerDur, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := handlerStart.Sub(t.t0) + (handlerDur-d)/2
	t.spans = append(t.spans, span{Req: t.req, Name: spanService, Start: int64(s), End: int64(s + d), Derived: true})
}

// handler wraps the server's route table. The in-service time of the request
// is how much ServiceStats.TotalLatency grew while it was handled: with one
// request in flight, that growth is this request's. The wrapper returns
// before the server finishes the response, so the client cannot have closed
// the request yet and the spans carry its id.
func (t *tracer) handler(h http.Handler, svc *plan.Service) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before := svc.ServiceStats().TotalLatency
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		t.record(spanHandler, start, d, 0)
		if in := svc.ServiceStats().TotalLatency - before; in > 0 {
			t.recordService(start, d, in)
		}
	})
}

// tracedPlanner decorates the planner handed to OpenService. It must stay
// both a QueryPlanner and a StatePorter, and change nothing but the clock.
type tracedPlanner struct {
	plan.QueryPlanner
	porter plan.StatePorter
	tr     *tracer
}

func newTracedPlanner(p plan.QueryPlanner, tr *tracer) *tracedPlanner {
	return &tracedPlanner{QueryPlanner: p, porter: p.(plan.StatePorter), tr: tr}
}

func (p *tracedPlanner) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	start := time.Now()
	res, err := p.QueryPlanner.Submit(ctx, q, opts...)
	p.tr.record(spanSubmit, start, time.Since(start), 0)
	if err == nil {
		p.tr.mu.Lock()
		p.tr.results = append(p.tr.results, res)
		p.tr.mu.Unlock()
	}
	return res, err
}

func (p *tracedPlanner) Remove(q dsps.StreamID) error {
	start := time.Now()
	err := p.QueryPlanner.Remove(q)
	p.tr.record(spanRemove, start, time.Since(start), 0)
	return err
}

func (p *tracedPlanner) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	name := spanRecover
	if len(events) > 0 && events[0].Kind == plan.HostFailed {
		name = spanFail
	}
	start := time.Now()
	rr, err := p.QueryPlanner.Repair(ctx, events, opts...)
	p.tr.record(name, start, time.Since(start), 0)
	return rr, err
}

func (p *tracedPlanner) ExportState() plan.State {
	start := time.Now()
	st := p.porter.ExportState()
	p.tr.record(spanExport, start, time.Since(start), 0)
	return st
}

func (p *tracedPlanner) ImportState(s plan.State) error { return p.porter.ImportState(s) }

// tracedFS decorates the journal's filesystem: every write and sync the log
// issues is a span, with the bytes written.
type tracedFS struct {
	wal.FS
	tr *tracer
}

func (fs *tracedFS) Create(name string) (wal.File, error) {
	start := time.Now()
	f, err := fs.FS.Create(name)
	fs.tr.record(spanFSCreate, start, time.Since(start), 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, tr: fs.tr}, nil
}

func (fs *tracedFS) Remove(name string) error {
	start := time.Now()
	err := fs.FS.Remove(name)
	fs.tr.record(spanFSCreate, start, time.Since(start), 0)
	return err
}

func (fs *tracedFS) SyncDir() error {
	start := time.Now()
	err := fs.FS.SyncDir()
	fs.tr.record(spanFSSync, start, time.Since(start), 0)
	return err
}

type tracedFile struct {
	wal.File
	tr *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.record(spanFSWrite, start, time.Since(start), n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.record(spanFSSync, start, time.Since(start), 0)
	return err
}

func (f *tracedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.tr.record(spanFSCreate, start, time.Since(start), 0)
	return err
}

// link derives the plan.diff_encode spans, numbers every span and resolves
// parents by the static nesting within each request. It returns the spans
// in recording order.
func link(spans []span) []span {
	out := append([]span(nil), spans...)
	// The gap between the end of a request's last ExportState and its
	// first journal write is where Diff and json.Marshal of the record ran.
	type gap struct {
		exportEnd, firstWrite int64
	}
	gaps := make(map[int64]*gap)
	var reqs []int64
	for _, s := range out {
		if s.Req == 0 {
			continue
		}
		g := gaps[s.Req]
		if g == nil {
			g = &gap{}
			gaps[s.Req] = g
			reqs = append(reqs, s.Req)
		}
		switch s.Name {
		case spanExport:
			if g.firstWrite == 0 {
				g.exportEnd = s.End
			}
		case spanFSWrite, spanFSCreate:
			if g.firstWrite == 0 {
				g.firstWrite = s.Start
			}
		}
	}
	for _, req := range reqs {
		if g := gaps[req]; g.exportEnd > 0 && g.firstWrite > g.exportEnd {
			out = append(out, span{Req: req, Name: spanDiffEnc, Start: g.exportEnd, End: g.firstWrite, Derived: true})
		}
	}
	type key struct {
		req  int64
		name string
	}
	ids := make(map[key]int)
	for i := range out {
		out[i].ID = i + 1
		if out[i].Req != 0 {
			k := key{out[i].Req, out[i].Name}
			if _, dup := ids[k]; !dup {
				ids[k] = out[i].ID
			}
		}
	}
	for i := range out {
		if p, ok := parentOf[out[i].Name]; ok && out[i].Req != 0 {
			parent := ids[key{out[i].Req, p}]
			// A read never enters the service: what the handler did for
			// it hangs off the handler.
			if parent == 0 && p == spanService {
				parent = ids[key{out[i].Req, spanHandler}]
			}
			out[i].Parent = parent
		}
	}
	return out
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count int
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
	bytes int
}

// mean is the mean duration of the layer's spans; 0 for a layer (nil) that
// recorded none.
func (t *layerTime) mean() time.Duration {
	if t == nil || t.count == 0 {
		return 0
	}
	return t.total / time.Duration(t.count)
}

// meanSelf is the mean self time of the layer's spans.
func (t *layerTime) meanSelf() time.Duration {
	if t == nil || t.count == 0 {
		return 0
	}
	return t.self / time.Duration(t.count)
}

// selfTimes sums duration and self time per span name over linked spans
// that belong to a request. A span's self time is its duration minus its
// children's; children of one request run one after another, so their
// durations add.
func selfTimes(linked []span) map[string]*layerTime {
	children := make(map[int]time.Duration)
	for i := range linked {
		if linked[i].Parent != 0 {
			children[linked[i].Parent] += linked[i].dur()
		}
	}
	out := make(map[string]*layerTime)
	for i := range linked {
		s := &linked[i]
		if s.Req == 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.bytes += s.Bytes
		if self := s.dur() - children[s.ID]; self > 0 {
			lt.self += self
		}
	}
	return out
}
