// Package stats provides tiny statistics helpers used by the evaluation
// harness: empirical CDFs and summary statistics.
package stats

import (
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs covering the
// sample range, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if lo == hi {
		return []float64{lo}, []float64{1}
	}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs = append(xs, x)
		ps = append(ps, c.At(x))
	}
	return xs, ps
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Mean returns the arithmetic mean of the samples (NaN when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Max returns the largest sample (0 when empty).
func Max(samples []float64) float64 {
	var m float64
	for i, v := range samples {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Table renders rows of labelled values as an aligned text table; used by
// the experiment binaries to print the series the paper plots.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < width[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
