package main

import (
	"math"
	"sort"
	"time"
)

// metric describes one reported number. bound is set on end-to-end metrics
// only: the share of the parent's median by which it may worsen.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is the gated metric set; BENCHMARK.json repeats it and a test
// keeps the two equal.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"submit_p50_ms", "ms", "lower", 0.25},
	{"admitted_frac", "ratio", "higher", 0.05},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the p-quantile of sorted samples by nearest rank.
func quantile(s []time.Duration, p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailSupported reports whether n samples carry percentile p: at least ten
// of them lie beyond it. A tail read off fewer is one slow request, not a
// distribution, and is reported as 0.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method), which is how the
// benchmark's steadiness is judged.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := medianFloat(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
