package serve_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqpr/internal/engine"
	"sqpr/internal/lp"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/wal"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenData populates every field of every surface with distinct values so
// a mixed-up mapping (wrong field feeding a metric) cannot cancel out.
func goldenData() serve.MetricsData {
	var hist [len(plan.LatencyBuckets) + 1]int
	hist[0] = 5
	hist[2] = 3
	hist[len(hist)-1] = 1
	return serve.MetricsData{
		Planner: plan.Stats{
			Submissions:        41,
			Rejections:         3,
			TotalPlanTime:      1500 * time.Millisecond,
			TotalNodes:         210,
			TotalLPIters:       3200,
			TotalPresolveFixed: 54,
			Timeouts:           2,
			SeedClosed:         17,
			BeyondSeed:         6,
			Factor: lp.FactorStats{
				Refactors:     12,
				DriftRebuilds: 1,
				EtaAppends:    300,
				RowEtas:       70,
				PeakEtas:      40,
				FillRatio:     1.75,
			},
		},
		Service: plan.ServiceStats{
			Requests:       38,
			Replies:        40,
			QueueFull:      4,
			Expired:        2,
			Solves:         20,
			BatchedSubmits: 35,
			TotalLatency:   900 * time.Millisecond,
			MaxLatency:     250 * time.Millisecond,
			LatencyHist:    hist,
		},
		WAL: wal.Stats{
			Appends:            36,
			Syncs:              36,
			Rotations:          2,
			Snapshots:          1,
			CompactedSegments:  1,
			ActiveSegmentBytes: 4096,
			LastSeq:            36,
			SnapshotSeq:        30,
		},
		Wedged:   true,
		Admitted: 33,
		Engine: &serve.EngineMetrics{
			Snapshot: engine.Snapshot{
				CPUWork:        []float64{10.5, 20.25},
				Sent:           []float64{100, 0},
				Received:       []float64{0, 100},
				Delivered:      []float64{0, 42},
				Drops:          []int64{0, 7},
				ComputeSamples: 123,
			},
			LatencyMean: 3 * time.Millisecond,
			LatencyMax:  90 * time.Millisecond,
			Failures:    2,
			Recoveries:  1,
		},
	}
}

// TestWriteMetricsGolden pins the whole exposition — metric names, labels,
// HELP/TYPE lines, histogram cumulation and value formatting — against a
// checked-in golden file. Run with -update to regenerate after a deliberate
// format change.
func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	serve.WriteMetrics(&buf, goldenData())

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file; run with -update if deliberate.\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteMetricsHistogramCumulates checks the Prometheus histogram
// contract independent of the golden file: buckets are cumulative, +Inf
// equals _count, and _count equals the reply total.
func TestWriteMetricsHistogramCumulates(t *testing.T) {
	var buf bytes.Buffer
	serve.WriteMetrics(&buf, goldenData())
	out := buf.String()

	if !strings.Contains(out, `sqpr_service_request_seconds_bucket{le="+Inf"} 9`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, "sqpr_service_request_seconds_count 9") {
		t.Fatalf("_count wrong:\n%s", out)
	}
	// The first two bounds share the cumulative count of bucket 0 (bucket 1
	// is empty), then bucket 2 adds 3.
	if !strings.Contains(out, `sqpr_service_request_seconds_bucket{le="0.0001"} 5`) ||
		!strings.Contains(out, `sqpr_service_request_seconds_bucket{le="0.0005"} 5`) ||
		!strings.Contains(out, `sqpr_service_request_seconds_bucket{le="0.001"} 8`) {
		t.Fatalf("cumulative buckets wrong:\n%s", out)
	}
}

// TestWriteMetricsOmitsEngineWhenAbsent checks the no-monitor daemon shape:
// every non-engine surface is present, engine series are absent.
func TestWriteMetricsOmitsEngineWhenAbsent(t *testing.T) {
	d := goldenData()
	d.Engine = nil
	var buf bytes.Buffer
	serve.WriteMetrics(&buf, d)
	out := buf.String()
	if strings.Contains(out, "sqpr_engine_") {
		t.Fatalf("engine series emitted without a monitor:\n%s", out)
	}
	for _, want := range []string{"sqpr_planner_submissions_total 41", "sqpr_lp_refactors_total 12",
		"sqpr_service_requests_total 38", "sqpr_wal_appends_total 36", "sqpr_wal_wedged 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
