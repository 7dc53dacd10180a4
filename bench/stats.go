package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even-length sample, as
// Python's statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail is a reportable percentile 1 - 1/denom: p50, p90, p99, p99.9.
type tail struct {
	name  string
	denom int
}

var tails = []tail{{"p50", 2}, {"p90", 10}, {"p99", 100}, {"p999", 1000}}

// supported reports whether n samples leave at least ten beyond the
// percentile, the rule for reporting one.
func (t tail) supported(n int) bool { return n/t.denom >= 10 }

func (t tail) q() float64 { return 1 - 1/float64(t.denom) }

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), the rule the
// benchmark's spreads are judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median;
// zero for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// summary is the median, min and max of repeated measurements.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1]}
}
