// Command calibperf is the repository's benchmark. Untraced, it builds
// calibserved and calibgate from the source tree, spawns fresh daemons
// for each workload and drives them over at most two connections,
// printing every end-to-end metric with its unit and checking every
// output. With -trace it replays each workload's op stream in-process
// against one layer at a time (the layer ladder) and prints the
// per-layer metrics. With -compare it judges two result files against
// the bounds in BENCHMARK.json. README.md in this directory describes the
// workloads, the metrics and how to run it.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace] [-runs k] [-out file]
//	bash bench/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     bool
	runs      int
	quick     bool
	out       string
	spans     string
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(2)
	fs := flag.NewFlagSet("calibperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: stream-mem, stream-durable, stream-gateway or solve-mix (default all four); -trace runs its one ladder for any")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", 20, "measured seconds per run, alternating 60% open loop and 40% closed loop; with -trace, the ladder's time budget")
		trace   = fs.Bool("trace", false, "run the traced in-process layer ladder instead of the end-to-end run (also accepts -trace 0|1)")
		runs    = fs.Int("runs", 1, "fresh-process runs per workload, with seeds seed..seed+runs-1; reports the median, min and max")
		quick   = fs.Bool("quick", false, "smoke run: in-process servers, short session lives and phases")
		out     = fs.String("out", "", "also write every run's values to this JSON file, the input of -compare")
		spans   = fs.String("spans", "", "with -trace, write the ladder's spans to spans.json in this directory (default .bench_build)")
		compare = fs.Bool("compare", false, "compare two -out files against the bounds in BENCHMARK.json: -compare base.json new.json")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "calibperf: -compare takes two result files: base.json new.json")
			return 2
		}
		return compareMain(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "calibperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, quick: *quick, out: *out, spans: *spans}
	if *name == "" {
		o.workloads = workloads
	} else if wl, ok := lookupWorkload(*name); ok {
		o.workloads = []workload{wl}
	} else {
		fmt.Fprintf(stderr, "calibperf: unknown workload %q\n", *name)
		return 2
	}
	if o.seconds <= 0 || o.runs < 1 {
		fmt.Fprintln(stderr, "calibperf: -seconds must be > 0 and -runs >= 1")
		return 2
	}
	res, err := execute(root, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "-trace 0" and "-trace 1" (one or two dashes)
// as "-trace=false" and "-trace=true": a boolean flag takes no separate
// value.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "false":
				out = append(out, "-trace=false")
				i++
				continue
			case "1", "true":
				out = append(out, "-trace=true")
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the calibsched module
// root, the tree the benchmark builds and measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(data) == "calibsched" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no calibsched source tree (go.mod with module calibsched) at or above the working directory")
		}
		dir = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs every selected workload and assembles the result line.
func execute(root string, o options, stdout, stderr io.Writer) (*result, error) {
	build := filepath.Join(root, ".bench_build")
	res := &result{Metrics: make(map[string]metricOut)}
	rep := &report{Schema: reportSchema, Mode: "end-to-end", Seconds: o.seconds, Workloads: make(map[string]map[string]*series)}
	catalog := append(append([]metricDef(nil), endToEnd...), diagnostics...)
	headline := endToEnd // the result line's metrics
	if o.trace {
		rep.Mode, catalog, headline = "trace", perLayer, perLayer
	}
	for i := 0; i < o.runs; i++ {
		rep.Seeds = append(rep.Seeds, o.seed+uint64(i))
	}

	var launch launcher = inProcLauncher{}
	if !o.trace && !o.quick {
		bin := filepath.Join(build, "bin")
		fmt.Fprintln(stderr, "calibperf: building calibserved and calibgate")
		if err := buildDaemons(root, bin); err != nil {
			return nil, err
		}
		launch = procLauncher{bin: bin}
	}
	steady := 0.10
	if spec, err := readBenchmarkSpec(root); err == nil {
		if b, ok := spec.bounds()["op_p50_ms"]; ok {
			steady = b
		}
	}

	groups := o.workloads
	if o.trace {
		// Each rung replays the op stream of the workload it targets, so
		// the ladder is the same whichever workload was named; it runs once.
		groups = []workload{{name: "ladder"}}
	}
	for _, wl := range groups {
		values := make(map[string][]float64)
		for i := 0; i < o.runs; i++ {
			seed := o.seed + uint64(i)
			start := time.Now()
			var (
				m         map[string][]float64
				attempted int
				failed    int
				err       error
			)
			if o.trace {
				m, attempted, failed, err = traceLadder(o, seed, build, stderr)
			} else {
				m, attempted, failed, err = measureWorkload(wl, o, seed, build, launch, steady, stderr)
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			fmt.Fprintf(stderr, "calibperf: %s seed %d: %d ops, %d failed, %.1f s\n", wl.name, seed, attempted, failed, time.Since(start).Seconds())
			res.Attempted += attempted
			res.Failed += failed
			for k, v := range m {
				values[k] = append(values[k], v...)
			}
		}
		ser := make(map[string]*series)
		for _, def := range catalog {
			v := values[def.name]
			if len(v) == 0 {
				continue
			}
			s := &series{Unit: def.unit, Values: v, summary: summarize(v)}
			ser[def.name] = s
			line := fmt.Sprintf("%-15s %-26s %14.6g %-7s", wl.name, def.name, s.Median, def.unit)
			if len(v) > 1 {
				line += fmt.Sprintf(" min %.6g  max %.6g  (n=%d)", s.Min, s.Max, len(v))
			}
			fmt.Fprintln(stdout, line)
		}
		rep.Workloads[wl.name] = ser
		for _, def := range headline {
			s, ok := ser[def.name]
			if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				return nil, fmt.Errorf("%s: no value for %s", wl.name, def.name)
			}
			key := def.name
			if len(groups) > 1 {
				key = wl.name + "/" + def.name
			}
			res.Metrics[key] = metricOut{Value: s.Median, Unit: def.unit}
		}
	}
	res.Correct = res.Failed == 0
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureWorkload is one untraced run; each metric gets one value.
func measureWorkload(wl workload, o options, seed uint64, build string, launch launcher, steady float64, stderr io.Writer) (map[string][]float64, int, int, error) {
	cfg := runConfig{seed: seed, seconds: o.seconds, work: filepath.Join(build, "work"), launch: launch, steady: steady}
	if o.quick {
		cfg.lifeDiv = 10
	}
	r, err := runWorkload(wl, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, f := range r.flags {
		fmt.Fprintf(stderr, "calibperf: %s seed %d: warning: %s\n", wl.name, seed, f)
	}
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "calibperf: %s seed %d: failed: %s\n", wl.name, seed, e)
	}
	m := make(map[string][]float64, len(r.metrics))
	for k, v := range r.metrics {
		m[k] = []float64{v}
	}
	return m, r.attempted, r.failed, nil
}

// traceLadder runs the layer ladder once; each metric gets one value
// per repetition. Its ops are the timed calls plus the outputs verified.
func traceLadder(o options, seed uint64, build string, stderr io.Writer) (map[string][]float64, int, int, error) {
	l := &ladder{
		seed:   seed,
		k:      5,
		scale:  o.seconds / 20,
		work:   filepath.Join(build, "work", "ladder"),
		tr:     newTracer(),
		vals:   make(map[string][]float64),
		solve:  newSolveStream(seed),
		expect: make(map[int]int64),
	}
	if o.quick {
		l.k, l.lifeDiv = 2, 10
	}
	l.slice = time.Duration(o.seconds / float64(ladderRungs*l.k) * float64(time.Second))
	if err := os.MkdirAll(l.work, 0o755); err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(l.work)
	if err := l.run(); err != nil {
		return nil, 0, 0, err
	}
	for _, b := range l.bad {
		fmt.Fprintf(stderr, "calibperf: ladder seed %d: failed: %s\n", seed, b)
	}
	dir := o.spans
	if dir == "" {
		dir = build
	}
	if err := l.tr.writeSpans(filepath.Join(dir, "spans.json"), seed); err != nil {
		return nil, 0, 0, err
	}
	return l.vals, l.tr.roots() + l.checked, len(l.bad), nil
}

// compareMain is -compare: one row per (metric, workload), exit 1 when a
// gated metric got worse.
func compareMain(root, basePath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readBenchmarkSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 2
	}
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "calibperf:", err)
		return 2
	}
	if compareReports(stdout, base, cur, spec.bounds()) {
		return 1
	}
	return 0
}
