package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v", got)
	}
	if got := c.At(4); got != 1 {
		t.Fatalf("At(4) = %v", got)
	}
	if got := c.At(2.5); got != 0.5 {
		t.Fatalf("At(2.5) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Len() != 0 {
		t.Fatal("empty CDF misbehaves")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("quantile of empty CDF should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("q0.5 = %v", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Fatalf("q0.25 = %v", got)
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	xs, ps := c.Points(11)
	if len(xs) != 11 || len(ps) != 11 {
		t.Fatalf("points: %d/%d", len(xs), len(ps))
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("final probability %v", ps[len(ps)-1])
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("mean of empty should be NaN")
	}
	if Max([]float64{3, 9, 4}) != 9 {
		t.Fatal("max wrong")
	}
	if Max(nil) != 0 {
		t.Fatal("max of empty should be 0")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "bbbb"}, [][]string{{"xxxxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	// The second column must start at the same offset in both lines.
	if strings.Index(lines[0], "bbbb") != strings.Index(lines[1], "y") {
		t.Fatalf("misaligned:\n%s", out)
	}
}

// Property: CDF.At is monotone and Quantile inverts At on sample points.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := -1.0
		for _, v := range sorted {
			p := c.At(v)
			if p < prev-1e-12 {
				return false
			}
			prev = p
		}
		return c.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySamples locks in the empty-input behaviour of the whole surface:
// no panics, NaN quantiles, zero probabilities.
// The open-loop arrival experiment feeds whatever latencies it collected
// straight in, so the zero-sample path is a real production path.
func TestEmptySamples(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 {
		t.Fatalf("empty CDF Len = %d", c.Len())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if v := c.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("empty CDF Quantile(%v) = %v, want NaN", q, v)
		}
	}
	if p := c.At(42); p != 0 {
		t.Fatalf("empty CDF At = %v, want 0", p)
	}
	if xs, ps := c.Points(5); xs != nil || ps != nil {
		t.Fatalf("empty CDF Points = %v, %v, want nil, nil", xs, ps)
	}
	if v := Mean(nil); !math.IsNaN(v) {
		t.Fatalf("Mean(nil) = %v, want NaN", v)
	}
	if v := Max(nil); v != 0 {
		t.Fatalf("Max(nil) = %v, want 0", v)
	}
}
