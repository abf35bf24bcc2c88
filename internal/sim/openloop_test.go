package sim

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopSmoke runs the arrival experiment at a tiny scale and checks
// the series is well-formed: one point per rate, all submissions accounted
// for.
func TestOpenLoopSmoke(t *testing.T) {
	ol := DefaultOpenLoopScale()
	ol.Hosts = 6
	ol.BaseStreams = 24
	ol.Queries = 24
	ol.Timeout = 20 * time.Millisecond
	ol.Rates = []float64{200}
	ol.Submitters = 16

	res := OpenLoop(context.Background(), ol)
	if len(res.Points) != len(ol.Rates) {
		t.Fatalf("got %d points, want one per rate (%d)", len(res.Points), len(ol.Rates))
	}
	for _, p := range res.Points {
		if p.Submitted != ol.Queries {
			t.Fatalf("rate %.0f: submitted %d, want %d", p.Rate, p.Submitted, ol.Queries)
		}
		if p.Admitted <= 0 {
			t.Fatalf("rate %.0f: admitted nothing", p.Rate)
		}
		if p.Throughput <= 0 {
			t.Fatalf("rate %.0f: zero throughput", p.Rate)
		}
		if p.P50 < 0 || p.Max < p.P50 {
			t.Fatalf("rate %.0f: broken latency percentiles p50=%v max=%v", p.Rate, p.P50, p.Max)
		}
	}
}
