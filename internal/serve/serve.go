// Package serve is the control-plane serving surface of the admission
// service: an HTTP API over plan.Service (submit, remove, repair, admitted
// set, assignment) plus a Prometheus-text-format metrics exporter that
// unifies every telemetry surface of the admission service — planner
// Stats, service queueing/latency stats, the write-ahead journal and the
// LP factorization counters. It turns the one-shot planning binaries into
// a long-running admission daemon in the style of operator control
// planes: liveness on /healthz, readiness on /readyz (a
// WAL-wedged service serves reads but is not ready for work), and a
// StartDrain hook that flips readiness off ahead of a graceful shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// Config wires a Server to its telemetry and state sources.
type Config struct {
	// Service is the admission service the API fronts. Required.
	Service *plan.Service
	// System, when non-nil, enables GET /v1/queries (the submittable query
	// streams of the system).
	System *dsps.System
}

// Server is the HTTP control plane over one admission service. Create it
// with New, mount Handler on an http.Server, and call StartDrain before a
// graceful shutdown so load balancers stop routing new work here while
// in-flight requests finish.
type Server struct {
	svc *plan.Service
	sys *dsps.System

	draining atomic.Bool
	mux      *http.ServeMux
}

// New builds the server and its route table.
func New(cfg Config) (*Server, error) {
	if cfg.Service == nil {
		return nil, errors.New("serve: Config.Service is required")
	}
	s := &Server{svc: cfg.Service, sys: cfg.System}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/remove", s.handleRemove)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("GET /v1/admitted", s.handleAdmitted)
	mux.HandleFunc("GET /v1/assignment", s.handleAssignment)
	mux.HandleFunc("GET /v1/queries", s.handleQueries)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// Handler returns the route table for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining mode: /readyz reports 503 so
// traffic stops being routed here, while every other endpoint keeps
// serving. Call it when the shutdown signal arrives, before
// http.Server.Shutdown waits out the in-flight requests.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// submitRequest is the POST /v1/submit body.
type submitRequest struct {
	// Query is the requested result stream.
	Query dsps.StreamID `json:"query"`
	// TimeoutMS, when positive, bounds the planning call's search
	// (WithTimeout); a call its greedy seed decides ignores it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// submitResponse reports a planning outcome over the wire.
type submitResponse struct {
	Query           dsps.StreamID `json:"query"`
	Admitted        bool          `json:"admitted"`
	AlreadyAdmitted bool          `json:"already_admitted,omitempty"`
	Reason          string        `json:"reason,omitempty"`
	PlanMS          float64       `json:"plan_ms"`
	Nodes           int           `json:"nodes,omitempty"`
	LPIters         int           `json:"lp_iters,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var opts []plan.SubmitOption
	if req.TimeoutMS > 0 {
		opts = append(opts, plan.WithTimeout(time.Duration(req.TimeoutMS)*time.Millisecond))
	}
	res, err := s.svc.Submit(r.Context(), req.Query, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	reason := ""
	if res.Reason != plan.ReasonNone {
		reason = res.Reason.String()
	}
	writeJSON(w, http.StatusOK, submitResponse{
		Query:           req.Query,
		Admitted:        res.Admitted,
		AlreadyAdmitted: res.AlreadyAdmitted,
		Reason:          reason,
		PlanMS:          float64(res.PlanTime) / float64(time.Millisecond),
		Nodes:           res.Nodes,
		LPIters:         res.LPIters,
	})
}

// removeRequest is the POST /v1/remove body.
type removeRequest struct {
	Query dsps.StreamID `json:"query"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.svc.Remove(req.Query); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"query": req.Query, "removed": true})
}

// eventJSON is one churn event on the wire. Kind accepts the canonical
// EventKind names ("host-failed", ...) and short curl-friendly aliases
// ("fail", "recover", "drain", "drift", "cost").
type eventJSON struct {
	Kind  string          `json:"kind"`
	Host  dsps.HostID     `json:"host,omitempty"`
	Query dsps.StreamID   `json:"query,omitempty"`
	Op    dsps.OperatorID `json:"op,omitempty"`
	Cost  float64         `json:"cost,omitempty"`
}

// repairRequest is the POST /v1/repair body.
type repairRequest struct {
	Events []eventJSON `json:"events"`
}

// repairResponse reports a repair outcome over the wire.
type repairResponse struct {
	Admitted bool            `json:"admitted"`
	Affected []dsps.StreamID `json:"affected,omitempty"`
	Kept     []dsps.StreamID `json:"kept,omitempty"`
	Dropped  []dsps.StreamID `json:"dropped,omitempty"`
	Migrated int             `json:"migrated"`
	PlanMS   float64         `json:"plan_ms"`
}

// parseEvent maps one wire event to a plan.Event.
func parseEvent(e eventJSON) (plan.Event, error) {
	switch e.Kind {
	case "fail", plan.HostFailed.String():
		return plan.FailHost(e.Host), nil
	case "recover", plan.HostRecovered.String():
		return plan.RecoverHost(e.Host), nil
	case "drain", plan.HostDrained.String():
		return plan.DrainHost(e.Host), nil
	case "drift", plan.QueryDrifted.String():
		return plan.DriftQuery(e.Query), nil
	case "cost", plan.CostDrifted.String():
		return plan.CostDrift(e.Op, e.Cost), nil
	}
	return plan.Event{}, fmt.Errorf("unknown event kind %q (want fail, recover, drain, drift or cost)", e.Kind)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req repairRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody("repair needs at least one event"))
		return
	}
	events := make([]plan.Event, 0, len(req.Events))
	for _, e := range req.Events {
		ev, err := parseEvent(e)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody(err.Error()))
			return
		}
		events = append(events, ev)
	}
	rr, err := s.svc.Repair(r.Context(), events)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, repairResponse{
		Admitted: rr.Admitted,
		Affected: rr.Affected,
		Kept:     rr.Kept,
		Dropped:  rr.Dropped,
		Migrated: rr.Migrated,
		PlanMS:   float64(rr.PlanTime) / float64(time.Millisecond),
	})
}

func (s *Server) handleAdmitted(w http.ResponseWriter, r *http.Request) {
	// Both fields come from one snapshot: a second service call would let a
	// submit land in between and answer count != len(queries). Only a
	// planner that cannot list its queries is asked for the bare count.
	qs := s.svc.AdmittedQueries()
	count := len(qs)
	if qs == nil {
		qs = []dsps.StreamID{}
		count = s.svc.AdmittedCount()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   count,
		"queries": qs,
	})
}

// handleAssignment writes the allocation's own wire encoding, compact:
// re-indenting it through writeJSON would encode the whole allocation a
// second time, and it is the largest body the API serves.
func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	body, err := s.svc.Assignment().MarshalJSON()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if s.sys == nil {
		writeJSON(w, http.StatusNotFound, errorBody("no system attached to this server"))
		return
	}
	qs := []dsps.StreamID{}
	for id := range s.sys.Streams {
		if s.sys.Streams[id].Requested {
			qs = append(qs, dsps.StreamID(id))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": qs})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.svc.Wedged(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: admission journal wedged: %v\n", err)
		return
	}
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready: draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data := MetricsData{
		Planner:  s.svc.Stats(),
		Service:  s.svc.ServiceStats(),
		WAL:      s.svc.WALStats(),
		Wedged:   s.svc.Wedged() != nil,
		Admitted: s.svc.AdmittedCount(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	WriteMetrics(w, data)
}

// maxBodyBytes bounds a POST body. The largest legitimate one is a repair
// with a few dozen events, well under a kilobyte.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body of at most maxBodyBytes, answering
// 413 on a larger one and 400 on malformed input — which includes anything
// but whitespace after the first JSON value.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, terr := dec.Token(); terr == nil {
			err = errors.New("trailing data after the JSON value")
		} else if terr != io.EOF {
			err = terr
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		if s := statusFor(err); s == http.StatusRequestEntityTooLarge {
			status = s
		}
		writeJSON(w, status, errorBody("decoding request body: "+err.Error()))
		return false
	}
	return true
}

// statusFor maps the service's typed errors to HTTP status codes: client
// mistakes are 4xx, backpressure is 429, a wedged or closed service is 503
// (the same condition /readyz reports), everything else 500.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, plan.ErrWALFailed), errors.Is(err, plan.ErrServiceClosed),
		errors.Is(err, wal.ErrCorrupt), errors.Is(err, wal.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, plan.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, plan.ErrUnknownStream), errors.Is(err, plan.ErrNotRequested),
		errors.Is(err, plan.ErrInvalidEvent):
		return http.StatusBadRequest
	case errors.Is(err, plan.ErrNotAdmitted):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func errorBody(msg string) map[string]string { return map[string]string{"error": msg} }

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorBody(err.Error()))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
