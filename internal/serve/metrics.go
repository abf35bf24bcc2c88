package serve

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"sqpr/internal/engine"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// MetricsData is one consistent snapshot of every telemetry surface the
// exporter unifies. The handler gathers it from the live service; tests
// construct it directly, which is what keeps the exposition format
// golden-testable.
type MetricsData struct {
	// Planner is the wrapped planner's cumulative Stats (which embeds the
	// LP engine's FactorStats).
	Planner plan.Stats
	// Service is the admission-service telemetry: queueing, planner calls
	// and the request-latency histogram.
	Service plan.ServiceStats
	// WAL is the admission journal's telemetry (zero for a non-durable
	// service).
	WAL wal.Stats
	// Wedged reports the service's sticky journal-failure state.
	Wedged bool
	// Admitted is the current admitted query count.
	Admitted int
	// Engine carries the resource monitor's counters; nil when the server
	// has no engine attached.
	Engine *EngineMetrics
}

// EngineMetrics is the engine.Monitor surface in exportable form.
type EngineMetrics struct {
	Snapshot                engine.Snapshot
	LatencyMean, LatencyMax time.Duration
	Failures, Recoveries    int64
}

// WriteMetrics renders the snapshot in Prometheus text exposition format
// (version 0.0.4). Metric names follow sqpr_<surface>_<metric>; per-host
// series carry a host="<id>" label; cumulative quantities end in _total.
// The output is deterministic for a fixed MetricsData.
func WriteMetrics(w io.Writer, d MetricsData) {
	m := metricsWriter{w: w}

	// Planner surface (plan.Stats).
	m.counter("sqpr_planner_submissions_total", "Planning calls applied by the planner (a batch counts once).", float64(d.Planner.Submissions))
	m.counter("sqpr_planner_rejections_total", "Planning calls that failed to admit a fresh query.", float64(d.Planner.Rejections))
	m.counter("sqpr_planner_plan_seconds_total", "Wall-clock planning time accumulated across calls.", d.Planner.TotalPlanTime.Seconds())
	m.counter("sqpr_planner_nodes_total", "Branch-and-bound nodes explored.", float64(d.Planner.TotalNodes))
	m.counter("sqpr_planner_lp_iterations_total", "Simplex iterations performed.", float64(d.Planner.TotalLPIters))
	m.counter("sqpr_planner_presolve_fixed_total", "Variables eliminated by presolve.", float64(d.Planner.TotalPresolveFixed))
	m.counter("sqpr_planner_timeouts_total", "Solves cut short by their deadline or node budget.", float64(d.Planner.Timeouts))
	m.counter("sqpr_planner_seed_closed_total", "Planning calls the greedy seed decided without a solve, admissions and rejections.", float64(d.Planner.SeedClosed))
	m.counter("sqpr_planner_beyond_seed_total", "Queries Submit solves admitted that their greedy seed had not placed.", float64(d.Planner.BeyondSeed))
	m.gauge("sqpr_planner_admitted_queries", "Currently admitted queries.", float64(d.Admitted))

	// LP factorization surface (lp.FactorStats via plan.Stats.Factor).
	f := d.Planner.Factor
	m.counter("sqpr_lp_refactors_total", "Basis factorizations performed.", float64(f.Refactors))
	m.counter("sqpr_lp_drift_rebuilds_total", "Refactorizations forced by numerical drift.", float64(f.DriftRebuilds))
	m.counter("sqpr_lp_eta_appends_total", "Product-form updates appended between refactorizations.", float64(f.EtaAppends))
	m.counter("sqpr_lp_row_etas_total", "Lazy rows bordered onto valid factors (one row eta each, counted in eta appends).", float64(f.RowEtas))
	m.gauge("sqpr_lp_peak_etas", "Longest eta file reached.", float64(f.PeakEtas))
	m.gauge("sqpr_lp_fill_ratio", "nnz(L+U)/nnz(B) at the last refactorization (high-water).", f.FillRatio)

	// Admission-service surface (plan.ServiceStats).
	s := d.Service
	m.counter("sqpr_service_requests_total", "Requests the dispatcher applied (excludes expired and shed requests).", float64(s.Requests))
	m.counter("sqpr_service_replies_total", "Replies delivered to callers (applied + expired).", float64(s.Replies))
	m.counter("sqpr_service_queue_full_total", "Requests shed with queue-full backpressure.", float64(s.QueueFull))
	m.counter("sqpr_service_expired_total", "Requests whose context expired while queued.", float64(s.Expired))
	m.counter("sqpr_service_solves_total", "Joint planning calls issued by the dispatcher.", float64(s.Solves))
	m.counter("sqpr_service_batched_submits_total", "Queries carried by planning calls (primary plus explicit batch companions).", float64(s.BatchedSubmits))
	m.gauge("sqpr_service_max_request_seconds", "Largest request latency observed.", s.MaxLatency.Seconds())
	m.histogram("sqpr_service_request_seconds", "Per-request latency from queue arrival to reply.",
		s.LatencyHist[:], s.TotalLatency.Seconds())

	// Journal surface (wal.Stats).
	m.counter("sqpr_wal_appends_total", "Journal records appended.", float64(d.WAL.Appends))
	m.counter("sqpr_wal_syncs_total", "Journal fsyncs issued.", float64(d.WAL.Syncs))
	m.counter("sqpr_wal_rotations_total", "Journal segment rotations.", float64(d.WAL.Rotations))
	m.counter("sqpr_wal_snapshots_total", "Journal compaction snapshots written.", float64(d.WAL.Snapshots))
	m.counter("sqpr_wal_compacted_segments_total", "Segment files deleted by snapshots.", float64(d.WAL.CompactedSegments))
	m.gauge("sqpr_wal_active_segment_bytes", "Byte size of the segment being appended.", float64(d.WAL.ActiveSegmentBytes))
	m.gauge("sqpr_wal_last_seq", "Sequence number of the last journaled record.", float64(d.WAL.LastSeq))
	m.gauge("sqpr_wal_snapshot_seq", "Sequence number covered by the latest snapshot.", float64(d.WAL.SnapshotSeq))
	m.gauge("sqpr_wal_wedged", "1 when the service is wedged on a journal failure, else 0.", boolGauge(d.Wedged))

	// Engine monitor surface (engine.Monitor), when attached.
	if e := d.Engine; e != nil {
		m.perHost("sqpr_engine_cpu_work_total", "Accumulated operator cost units per host.", e.Snapshot.CPUWork)
		m.perHost("sqpr_engine_sent_total", "Rate-weighted network egress per host (transfers out, relays included).", e.Snapshot.Sent)
		m.perHost("sqpr_engine_received_total", "Rate-weighted network ingress per host.", e.Snapshot.Received)
		m.perHost("sqpr_engine_delivered_total", "Rate-weighted client deliveries per host (local, not egress).", e.Snapshot.Delivered)
		m.help("sqpr_engine_drops_total", "Tuples lost to full queues or down hosts, per host.", "counter")
		for h, v := range e.Snapshot.Drops {
			m.labeled("sqpr_engine_drops_total", h, float64(v))
		}
		m.counter("sqpr_engine_compute_samples_total", "Operator invocations folded into cpu_work.", float64(e.Snapshot.ComputeSamples))
		m.gauge("sqpr_engine_latency_mean_seconds", "Mean source-to-delivery latency.", e.LatencyMean.Seconds())
		m.gauge("sqpr_engine_latency_max_seconds", "Maximum source-to-delivery latency.", e.LatencyMax.Seconds())
		m.counter("sqpr_engine_host_failures_total", "Host failures observed by the monitor.", float64(e.Failures))
		m.counter("sqpr_engine_host_recoveries_total", "Host recoveries observed by the monitor.", float64(e.Recoveries))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricsWriter accumulates the exposition text.
type metricsWriter struct {
	w io.Writer
}

func (m *metricsWriter) help(name, help, typ string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m *metricsWriter) counter(name, help string, v float64) {
	m.help(name, help, "counter")
	fmt.Fprintf(m.w, "%s %s\n", name, num(v))
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.help(name, help, "gauge")
	fmt.Fprintf(m.w, "%s %s\n", name, num(v))
}

func (m *metricsWriter) labeled(name string, host int, v float64) {
	fmt.Fprintf(m.w, "%s{host=\"%d\"} %s\n", name, host, num(v))
}

func (m *metricsWriter) perHost(name, help string, vs []float64) {
	m.help(name, help, "counter")
	for h, v := range vs {
		m.labeled(name, h, v)
	}
}

// histogram renders a Prometheus histogram from the service's fixed-bucket
// latency counts (plan.LatencyBuckets bounds + overflow): cumulative
// _bucket series, then _sum and _count.
func (m *metricsWriter) histogram(name, help string, buckets []int, sumSeconds float64) {
	m.help(name, help, "histogram")
	cum := 0
	for i, b := range plan.LatencyBuckets {
		cum += buckets[i]
		fmt.Fprintf(m.w, "%s_bucket{le=\"%s\"} %d\n", name, num(b.Seconds()), cum)
	}
	cum += buckets[len(plan.LatencyBuckets)]
	fmt.Fprintf(m.w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(m.w, "%s_sum %s\n", name, num(sumSeconds))
	fmt.Fprintf(m.w, "%s_count %d\n", name, cum)
}

// num formats a sample value the shortest way that round-trips.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
