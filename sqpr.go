// Package sqpr is the public facade of this repository: a Go implementation
// of SQPR — Stream Query Planning with Reuse (Kalyvianaki et al., ICDE
// 2011). SQPR plans continuous queries onto the hosts of a distributed
// stream processing system by solving a single mixed-integer optimisation
// problem that combines query admission, operator placement and cross-query
// reuse (including relaying streams between hosts), made tractable by
// restricting each planning call to the streams and operators related to
// the newly submitted query.
//
// The facade re-exports the pieces a downstream user needs:
//
//   - the system/query/resource model (hosts, streams, operators,
//     assignments) from internal/dsps;
//   - the unified, context-aware QueryPlanner interface with functional
//     submit options, implemented by every planner;
//   - the SQPR planner from internal/core;
//   - baseline planners (heuristic, SODA-like, optimistic bound) and the
//     hierarchical decomposition;
//   - the synthetic workload generator of the paper's evaluation;
//   - a miniature stream engine that executes produced plans.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package sqpr

import (
	"context"
	"io"
	"time"

	"sqpr/internal/bound"
	"sqpr/internal/core"
	"sqpr/internal/dsps"
	"sqpr/internal/engine"
	"sqpr/internal/heuristic"
	"sqpr/internal/hier"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/soda"
	"sqpr/internal/wal"
	"sqpr/internal/workload"
)

// QueryPlanner is the unified, context-aware planning interface implemented
// by all five planners: core SQPR, the heuristic baseline, the SODA-like
// baseline, the optimistic bound and the hierarchical decomposition.
// Submit accepts functional options (WithTimeout, WithCandidateHosts,
// WithBatch); cancelling the context aborts a planning call promptly and
// leaves the planner state unchanged.
type QueryPlanner = plan.QueryPlanner

// Compile-time conformance of all five planners to the interface.
var (
	_ QueryPlanner = (*core.Planner)(nil)
	_ QueryPlanner = (*heuristic.Planner)(nil)
	_ QueryPlanner = (*soda.Planner)(nil)
	_ QueryPlanner = (*bound.Planner)(nil)
	_ QueryPlanner = (*hier.Planner)(nil)
)

// Compile-time conformance of all five planners to StatePorter: every
// planner can export/import its full durable state, so every planner works
// under the durable admission service (OpenService).
var (
	_ StatePorter = (*core.Planner)(nil)
	_ StatePorter = (*heuristic.Planner)(nil)
	_ StatePorter = (*soda.Planner)(nil)
	_ StatePorter = (*bound.Planner)(nil)
	_ StatePorter = (*hier.Planner)(nil)
)

// Compile-time conformance of all five planners to plan.DeltaRecorder:
// the durable service journals what each request touched, exporting the
// whole state only for snapshots.
var (
	_ plan.DeltaRecorder = (*core.Planner)(nil)
	_ plan.DeltaRecorder = (*heuristic.Planner)(nil)
	_ plan.DeltaRecorder = (*soda.Planner)(nil)
	_ plan.DeltaRecorder = (*bound.Planner)(nil)
	_ plan.DeltaRecorder = (*hier.Planner)(nil)
)

// Core model types.
type (
	// System describes hosts, streams, operators and link capacities.
	System = dsps.System
	// Host is one processing host with CPU and bandwidth budgets.
	Host = dsps.Host
	// HostID identifies a host.
	HostID = dsps.HostID
	// StreamID identifies a base or composite stream.
	StreamID = dsps.StreamID
	// OperatorID identifies a query operator.
	OperatorID = dsps.OperatorID
	// Operator is a query operator (inputs, output, cost).
	Operator = dsps.Operator
	// Stream is one data stream.
	Stream = dsps.Stream
	// Assignment is a full allocation: providers, flows and placements.
	Assignment = dsps.Assignment
	// Flow is one inter-host stream transfer.
	Flow = dsps.Flow
	// Placement is one operator-on-host assignment.
	Placement = dsps.Placement
	// Provide is one requested stream served to clients from a host.
	Provide = dsps.Provide
	// Usage is a resource-consumption snapshot of an assignment.
	Usage = dsps.Usage
)

// Planner types.
type (
	// Planner is the SQPR planner.
	Planner = core.Planner
	// PlannerConfig tunes the SQPR planner.
	PlannerConfig = core.Config
	// Result describes one planning call's outcome, for every planner,
	// including a machine-readable rejection Reason.
	Result = plan.Result
	// Reason is a machine-readable rejection reason on Result.
	Reason = plan.Reason
	// PlannerStats is the cumulative telemetry every planner exposes.
	PlannerStats = plan.Stats
	// SubmitOption customises one Submit call (see WithTimeout,
	// WithCandidateHosts, WithBatch).
	SubmitOption = plan.SubmitOption
	// Weights are the λ1–λ4 objective weights.
	Weights = core.Weights
	// HeuristicPlanner is the hand-crafted baseline of §V-A.
	HeuristicPlanner = heuristic.Planner
	// SODAPlanner is the SODA-like baseline of §V-B.
	SODAPlanner = soda.Planner
	// BoundPlanner computes the aggregate-host optimistic bound.
	BoundPlanner = bound.Planner
	// HierarchicalPlanner decomposes planning by host sites (§VII).
	HierarchicalPlanner = hier.Planner
)

// Admission-service types: the goroutine-safe planner front-end.
type (
	// Service is a goroutine-safe admission front-end over any
	// QueryPlanner: requests from arbitrary goroutines are queued and
	// applied by one dispatcher in arrival order, one planner call per
	// request. It implements QueryPlanner itself.
	Service = plan.Service
	// ServiceConfig tunes a Service (queue depth, journal snapshot
	// interval).
	ServiceConfig = plan.ServiceConfig
	// ServiceStats is the service-level telemetry: queueing, planner calls
	// and per-request latency.
	ServiceStats = plan.ServiceStats
)

// Durability types: the write-ahead admission journal and recovery.
type (
	// PlannerState is a planner's exported durable state: assignment,
	// admitted set, host availability, drifted operator costs and
	// planner-private aux data.
	PlannerState = plan.State
	// StatePorter is implemented by every planner in this repository:
	// export/import of the full durable state, the basis of journal replay.
	StatePorter = plan.StatePorter
	// RecoveredState reports what OpenService rebuilt from the journal.
	RecoveredState = plan.RecoveredState
	// WALOptions tunes the write-ahead log (segment size, fsync policy).
	WALOptions = wal.Options
	// WALStats is the journal telemetry exposed by Service.WALStats.
	WALStats = wal.Stats
	// WALFS is the filesystem abstraction the journal writes through
	// (DirFS for a real directory; test harnesses inject fault-laden ones).
	WALFS = wal.FS
)

// Journal fsync policies (WALOptions.Sync).
const (
	SyncAlways = wal.SyncAlways
	SyncEvery  = wal.SyncEvery
	SyncNever  = wal.SyncNever
)

// EngineReport is what one RunEngine measured: per-host CPU work, network
// transfers and deliveries, and the result tuples per provided stream.
type EngineReport = engine.Report

// Workload types.
type (
	// WorkloadConfig describes a synthetic query workload.
	WorkloadConfig = workload.Config
	// SystemConfig describes a homogeneous host substrate.
	SystemConfig = workload.SystemConfig
	// Workload is a generated query sequence.
	Workload = workload.Workload
)

// NoOperator marks base streams (no producing operator).
const NoOperator = dsps.NoOperator

// Churn types: host availability states and the repair surface.
type (
	// HostState is a host's availability under churn (up/draining/down).
	HostState = dsps.HostState
	// Event is one churn event consumed by QueryPlanner.Repair.
	Event = plan.Event
	// EventKind classifies churn events.
	EventKind = plan.EventKind
	// RepairResult reports a Repair call's outcome: affected, kept and
	// dropped queries plus the operator migration count.
	RepairResult = plan.RepairResult
)

// Host availability states.
const (
	HostUp       = dsps.HostUp
	HostDraining = dsps.HostDraining
	HostDown     = dsps.HostDown
)

// Churn event kinds.
const (
	HostFailed    = plan.HostFailed
	HostRecovered = plan.HostRecovered
	HostDrained   = plan.HostDrained
	QueryDrifted  = plan.QueryDrifted
	CostDrifted   = plan.CostDrifted
)

// FailHost returns a host-failure event for Repair.
func FailHost(h HostID) Event { return plan.FailHost(h) }

// RecoverHost returns a host-recovery event for Repair.
func RecoverHost(h HostID) Event { return plan.RecoverHost(h) }

// DrainHost returns a graceful host-decommission event for Repair.
func DrainHost(h HostID) Event { return plan.DrainHost(h) }

// DriftQuery returns a query-drift event for Repair.
func DriftQuery(q StreamID) Event { return plan.DriftQuery(q) }

// CostDrift returns the event of operator op measured at cost observed, for
// Repair: the cost replaces the modelled one, durably, and the queries
// running op are re-planned under it (§IV-B).
func CostDrift(op OperatorID, observed float64) Event { return plan.CostDrift(op, observed) }

// Rejection reasons carried by Result.Reason.
const (
	ReasonNone              = plan.ReasonNone
	ReasonNoFeasiblePlan    = plan.ReasonNoFeasiblePlan
	ReasonResourceExhausted = plan.ReasonResourceExhausted
	ReasonNoTemplate        = plan.ReasonNoTemplate
	ReasonValidationFailed  = plan.ReasonValidationFailed
)

// Typed errors returned by planner methods; compare with errors.Is.
var (
	// ErrUnknownStream reports a StreamID outside the system's stream table.
	ErrUnknownStream = plan.ErrUnknownStream
	// ErrNotRequested reports a stream never marked as a query.
	ErrNotRequested = plan.ErrNotRequested
	// ErrNotAdmitted reports a Remove of a query that is not admitted.
	ErrNotAdmitted = plan.ErrNotAdmitted
	// ErrQueueFull reports backpressure from a Service's bounded queue.
	ErrQueueFull = plan.ErrQueueFull
	// ErrServiceClosed reports a request against a closed Service.
	ErrServiceClosed = plan.ErrServiceClosed
	// ErrWALFailed reports that the admission journal could not be written;
	// the durable service wedges (state-changing requests fail fast) until
	// restarted, which recovers from the last good journal state.
	ErrWALFailed = plan.ErrWALFailed
	// ErrWALCorrupt reports journal corruption outside the final tail
	// record (which is truncated instead) — recovery refuses to guess.
	ErrWALCorrupt = wal.ErrCorrupt
)

// WithTimeout bounds one planning call by d instead of the planner default.
func WithTimeout(d time.Duration) SubmitOption { return plan.WithTimeout(d) }

// WithCandidateHosts restricts one call's candidate host universe (plus any
// hosts forced in for correctness).
func WithCandidateHosts(hosts ...HostID) SubmitOption { return plan.WithCandidateHosts(hosts...) }

// WithBatch plans the given queries jointly with the primary query in one
// optimisation; the solver deadline scales with the batch size (§V-A1).
func WithBatch(qs ...StreamID) SubmitOption { return plan.WithBatch(qs...) }

// NewSystem creates a system with the given hosts and uniform link capacity.
func NewSystem(hosts []Host, linkCap float64) *System { return dsps.NewSystem(hosts, linkCap) }

// BuildSystem creates a homogeneous system from a SystemConfig.
func BuildSystem(cfg SystemConfig) *System { return workload.BuildSystem(cfg) }

// NewAssignment returns an empty allocation.
func NewAssignment() *Assignment { return dsps.NewAssignment() }

// NewPlanner creates an SQPR planner.
func NewPlanner(sys *System, cfg PlannerConfig) *Planner { return core.NewPlanner(sys, cfg) }

// DefaultPlannerConfig returns the evaluation-harness defaults.
func DefaultPlannerConfig() PlannerConfig { return core.DefaultConfig() }

// PaperWeights returns the §IV-A objective weights.
func PaperWeights() Weights { return core.PaperWeights() }

// NewHeuristicPlanner creates the heuristic baseline.
func NewHeuristicPlanner(sys *System, w Weights) *HeuristicPlanner { return heuristic.New(sys, w) }

// NewSODAPlanner creates the SODA-like baseline.
func NewSODAPlanner(sys *System) *SODAPlanner { return soda.New(sys) }

// NewBoundPlanner creates the optimistic-bound planner.
func NewBoundPlanner(sys *System) *BoundPlanner { return bound.New(sys) }

// NewHierarchicalPlanner creates a site-decomposed SQPR planner.
func NewHierarchicalPlanner(sys *System, cfg PlannerConfig, numSites int) *HierarchicalPlanner {
	return hier.New(sys, cfg, numSites)
}

// GenerateWorkload populates sys with base streams, queries and the full
// join-tree operator space, returning the submission sequence.
func GenerateWorkload(sys *System, cfg WorkloadConfig) *Workload { return workload.Generate(sys, cfg) }

// DefaultWorkloadConfig mirrors the paper's simulation workload at reduced
// scale.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// NewService wraps any planner in a goroutine-safe admission service and
// starts its dispatcher: clients Submit/Remove/Repair from arbitrary
// goroutines, and the dispatcher applies their requests one at a time in
// arrival order. Call Close to stop it.
func NewService(p QueryPlanner, cfg ServiceConfig) *Service { return plan.NewService(p, cfg) }

// DirFS opens (creating if needed) a directory for the write-ahead journal.
func DirFS(dir string) (WALFS, error) { return wal.DirFS(dir) }

// OpenService opens (or creates) the write-ahead admission journal in fs,
// replays it into the freshly constructed planner p — rebuilding the exact
// pre-crash admitted set and placements with zero planning solves — and
// returns a running durable admission service that journals every
// state-changing outcome before acknowledging it. p must implement
// StatePorter (all planners in this repository do) and must be built over
// a system identical to the one the journal was written against.
func OpenService(p QueryPlanner, cfg ServiceConfig, fs WALFS, wopts WALOptions) (*Service, RecoveredState, error) {
	return plan.OpenService(p, cfg, fs, wopts)
}

// Control-plane serving types: the HTTP admission API and the unified
// metrics exporter that turn a Service into a long-running daemon.
type (
	// AdmissionServer is the HTTP control plane over one admission service:
	// POST /v1/submit, /v1/remove, /v1/repair; GET /v1/admitted,
	// /v1/assignment, /v1/queries; GET /metrics (Prometheus text format),
	// /healthz and /readyz (503 when the journal is wedged or a drain is
	// underway).
	AdmissionServer = serve.Server
	// ServerConfig wires an AdmissionServer to its service and optional
	// system.
	ServerConfig = serve.Config
	// MetricsData is one consistent snapshot of every telemetry surface the
	// /metrics exporter unifies (planner, LP factorization, service, WAL).
	MetricsData = serve.MetricsData
)

// NewAdmissionServer builds the HTTP control plane; mount Handler on an
// http.Server and call StartDrain when the shutdown signal arrives.
func NewAdmissionServer(cfg ServerConfig) (*AdmissionServer, error) { return serve.New(cfg) }

// WriteMetrics renders a telemetry snapshot in Prometheus text exposition
// format (what GET /metrics serves).
func WriteMetrics(w io.Writer, d MetricsData) { serve.WriteMetrics(w, d) }

// RunEngine executes the assignment on the mini stream engine for the
// given simulated seconds; the same plan and duration always yield the
// same report. An infeasible assignment is refused.
func RunEngine(sys *System, a *Assignment, seconds float64) (EngineReport, error) {
	return engine.Run(sys, a, seconds)
}

// QuickPlan is a convenience helper: it submits the queries in order with
// the given per-query timeout and returns the number admitted. The context
// bounds the whole run.
func QuickPlan(ctx context.Context, sys *System, queries []StreamID, timeout time.Duration) (int, error) {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = timeout
	p := core.NewPlanner(sys, cfg)
	for _, q := range queries {
		if _, err := p.Submit(ctx, q); err != nil {
			return p.AdmittedCount(), err
		}
	}
	return p.AdmittedCount(), nil
}
