package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// report is the -out file: every run's value of every metric, per
// workload (a traced report has the one group "ladder"). -compare reads
// two of them.
type report struct {
	Schema    string                        `json:"schema"`
	Mode      string                        `json:"mode"` // "end-to-end" or "trace"
	Seeds     []uint64                      `json:"seeds"`
	Seconds   float64                       `json:"seconds"`
	Workloads map[string]map[string]*series `json:"workloads"`
}

const reportSchema = "calibperf/v1"

// series is one metric's values over a workload's runs (or, for the
// ladder, its repetitions).
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	summary
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// bounds maps each gated metric to its allowed worsening.
func (s *benchmarkSpec) bounds() map[string]float64 {
	b := make(map[string]float64, len(s.EndToEnd))
	for _, m := range s.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	within     verdict = "within bound"
	unresolved verdict = "unresolved"
	ungated    verdict = "ungated"
)

// judge compares a metric's runs on two commits: a median that moves by
// more than the bound is worse or better, anything less is within bound.
// When either side's spread (interquartile distance over median) is
// wider than the bound, noise could hide a regression, so the result is
// unresolved unless every new run beats every base run.
func judge(base, cur []float64, dir string, bound float64) verdict {
	mb := median(base)
	worsening := (median(cur) - mb) / mb
	if dir == "higher" {
		worsening = -worsening
	}
	if spread(base) > bound || spread(cur) > bound {
		if allBetter(base, cur, dir) {
			return better
		}
		return unresolved
	}
	switch {
	case worsening > bound:
		return worse
	case worsening < -bound:
		return better
	}
	return within
}

func allBetter(base, cur []float64, dir string) bool {
	b, c := sortedCopy(base), sortedCopy(cur)
	if dir == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// compareReports prints one row per (metric, workload) present in both
// reports and returns whether any gated metric got worse.
func compareReports(w io.Writer, base, cur *report, bounds map[string]float64) bool {
	regressed := false
	fmt.Fprintf(w, "%-15s %-26s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	var groups []string
	for g := range base.Workloads {
		if cur.Workloads[g] != nil {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	for _, g := range groups {
		bm, cm := base.Workloads[g], cur.Workloads[g]
		var names []string
		for name := range bm {
			if cm[name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			def, ok := lookupMetric(name)
			if !ok {
				continue
			}
			b, c := bm[name].Values, cm[name].Values
			bound, gated := bounds[name]
			v, boundText := ungated, "-"
			if gated {
				v, boundText = judge(b, c, def.better, bound), fmt.Sprintf("%.0f%%", 100*bound)
			}
			change := (median(c) - median(b)) / median(b)
			if v == worse {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-26s %12.4g %12.4g %+7.1f%% %6.1f%% %7s  %s\n",
				g, name, median(b), median(c), 100*change, 100*max(spread(b), spread(c)), boundText, v)
		}
	}
	return regressed
}
