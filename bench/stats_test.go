package main

import (
	"math"
	"testing"
)

// TestTailRule pins the reporting rule: the highest percentile reported
// is the highest with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, ""}, {19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"},
		{999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}, {1 << 20, "p999"},
	} {
		highest := ""
		for _, tl := range tails {
			if tl.supported(tc.n) {
				highest = tl.name
			}
		}
		if highest != tc.want {
			t.Errorf("%d samples support up to %q, want %q", tc.n, highest, tc.want)
		}
	}
}

// TestQuartilesMatchPython checks the quartiles against Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.0, 2.0}, 1.0, 3.1},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 0.999: 999} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
}
