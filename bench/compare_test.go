package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		base, cur []float64
		dir       string
		bound     float64
		want      verdict
	}{
		{"same", steady, steady, "lower", 0.1, within},
		{"small move", steady, scale(steady, 1.05), "lower", 0.1, within},
		{"slower", steady, scale(steady, 1.2), "lower", 0.1, worse},
		{"faster", steady, scale(steady, 0.8), "lower", 0.1, better},
		{"throughput down", steady, scale(steady, 0.8), "higher", 0.1, worse},
		{"throughput up", steady, scale(steady, 1.2), "higher", 0.1, better},
		{"noisy", []float64{60, 100, 140, 80, 120}, scale(steady, 1.2), "lower", 0.1, unresolved},
		{"noisy but every run better", []float64{60, 100, 140, 80, 120}, scale(steady, 0.5), "lower", 0.1, better},
		{"noisy new side", steady, []float64{60, 100, 140, 80, 120}, "lower", 0.1, unresolved},
	} {
		if got := judge(tc.base, tc.cur, tc.dir, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsRows(t *testing.T) {
	mk := func(p50 float64) *report {
		return &report{Schema: reportSchema, Workloads: map[string]map[string]*series{
			"stream-mem": {
				"op_p50_ms": {Unit: "ms", Values: []float64{p50, p50, p50}},
				"open_ops":  {Unit: "ops", Values: []float64{100, 100, 100}},
			},
		}}
	}
	var out bytes.Buffer
	if !compareReports(&out, mk(1), mk(2), map[string]float64{"op_p50_ms": 0.1}) {
		t.Errorf("a doubled p50 was not reported as a regression:\n%s", out.String())
	}
	text := out.String()
	for _, want := range []string{"op_p50_ms", "worse", "open_ops", "ungated"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison lacks %q:\n%s", want, text)
		}
	}
	out.Reset()
	if compareReports(&out, mk(1), mk(1.01), map[string]float64{"op_p50_ms": 0.1}) {
		t.Errorf("a 1%% move was reported as a regression:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readBenchmarkSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound < 0.10 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0.10, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}
