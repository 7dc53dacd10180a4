package online

import (
	"encoding/json"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/trace"
	"calibsched/internal/workload"
)

// runTraced runs the named algorithm with the given sink attached.
func runTraced(t *testing.T, alg string, in *core.Instance, g int64, sink trace.Sink) *Result {
	t.Helper()
	var opts []Option
	if sink != nil {
		opts = append(opts, WithSink(sink))
	}
	var res *Result
	var err error
	switch alg {
	case "alg1":
		res, err = Alg1(in, g, opts...)
	case "alg2":
		res, err = Alg2(in, g, opts...)
	case "alg3":
		res, err = Alg3(in, g, opts...)
	case "alg2multi":
		res, err = Alg2Multi(in, g, opts...)
	default:
		t.Fatalf("unknown alg %s", alg)
	}
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return res
}

// TestTracingDifferential is the acceptance gate of the observability
// layer: attaching a sink must not change the schedule in any way. The
// traced and untraced runs are serialized and compared byte for byte.
func TestTracingDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, tc := range []struct {
		alg      string
		p        int
		weighted bool
	}{
		{"alg1", 1, false},
		{"alg2", 1, true},
		{"alg3", 3, false},
		{"alg2multi", 3, true},
	} {
		for trial := 0; trial < 40; trial++ {
			in := randomInstance(rng, tc.p, tc.weighted)
			g := int64(rng.IntN(40))
			plain := runTraced(t, tc.alg, in, g, nil)
			rec := &trace.Recorder{}
			traced := runTraced(t, tc.alg, in, g, rec)
			pb, err := json.Marshal(plain.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := json.Marshal(traced.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			if string(pb) != string(tb) {
				t.Fatalf("%s trial %d: schedule changed under tracing\nuntraced: %s\ntraced:   %s", tc.alg, trial, pb, tb)
			}
			if len(rec.Events()) != plain.Schedule.NumCalibrations() {
				t.Fatalf("%s trial %d: %d events for %d calibrations", tc.alg, trial, len(rec.Events()), plain.Schedule.NumCalibrations())
			}
		}
	}
}

// TestDecisionEventsExplainEveryCalibration checks the per-event contract
// on the single-machine algorithms: event i describes calendar entry i
// (time, rule, sequencing, prospective flow, accrued cost).
func TestDecisionEventsExplainEveryCalibration(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for _, alg := range []string{"alg1", "alg2"} {
		for trial := 0; trial < 40; trial++ {
			in := randomInstance(rng, 1, alg == "alg2")
			g := int64(rng.IntN(40))
			rec := &trace.Recorder{}
			res := runTraced(t, alg, in, g, rec)
			evs := rec.Events()
			if len(evs) != len(res.Schedule.Calendar) {
				t.Fatalf("%s: %d events, %d calendar entries", alg, len(evs), len(res.Schedule.Calendar))
			}
			for i, ev := range evs {
				c := res.Schedule.Calendar[i]
				if ev.Time != c.Start || ev.Machine != c.Machine {
					t.Fatalf("%s event %d: at (m%d, t%d), calendar says (m%d, t%d)", alg, i, ev.Machine, ev.Time, c.Machine, c.Start)
				}
				if want := ruleName(alg, res.Triggers[i]); ev.Rule != want {
					t.Fatalf("%s event %d: rule %q, want %q", alg, i, ev.Rule, want)
				}
				if ev.Seq != int64(i+1) || ev.Calibrations != i+1 {
					t.Fatalf("%s event %d: seq %d calibrations %d", alg, i, ev.Seq, ev.Calibrations)
				}
				if ev.AccruedCost != g*int64(i+1) {
					t.Fatalf("%s event %d: accrued cost %d, want %d", alg, i, ev.AccruedCost, g*int64(i+1))
				}
				if ev.ProspectiveFlow != res.FlowAtCalibration[i] {
					t.Fatalf("%s event %d: prospective flow %d, want FlowAtCalibration %d", alg, i, ev.ProspectiveFlow, res.FlowAtCalibration[i])
				}
				if ev.QueueLen < 1 {
					t.Fatalf("%s event %d: calibrated with empty queue snapshot", alg, i)
				}
			}
		}
	}
}

// TestStepperTracingMatchesBatch proves the stepper emits the same
// decision stream as the batch run, and that tracing leaves its schedule
// byte-identical.
func TestStepperTracingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for _, alg := range []string{"alg1", "alg2"} {
		for trial := 0; trial < 40; trial++ {
			in := randomInstance(rng, 1, alg == "alg2")
			g := int64(rng.IntN(40))

			newStepperFor := func(sink trace.Sink) *Stepper {
				var opts []Option
				if sink != nil {
					opts = append(opts, WithSink(sink))
				}
				if alg == "alg1" {
					return NewAlg1Stepper(in.T, g, opts...)
				}
				return NewAlg2Stepper(in.T, g, opts...)
			}

			plainSched, _ := driveStepper(newStepperFor(nil), in)
			rec := &trace.Recorder{}
			tracedSched, _ := driveStepper(newStepperFor(rec), in)
			pb, _ := json.Marshal(plainSched)
			tb, _ := json.Marshal(tracedSched)
			if string(pb) != string(tb) {
				t.Fatalf("%s trial %d: stepper schedule changed under tracing", alg, trial)
			}

			batchRec := &trace.Recorder{}
			runTraced(t, alg, in, g, batchRec)
			sevs, bevs := rec.Events(), batchRec.Events()
			if len(sevs) != len(bevs) {
				t.Fatalf("%s trial %d: stepper emitted %d events, batch %d", alg, trial, len(sevs), len(bevs))
			}
			for i := range sevs {
				if sevs[i] != bevs[i] {
					t.Fatalf("%s trial %d event %d: stepper %+v != batch %+v", alg, trial, i, sevs[i], bevs[i])
				}
			}
		}
	}
}

// TestRuleNamesDocumented pins the emitters' rule identifiers to the
// justification table in internal/trace: every rule an algorithm can fire
// must have a RuleDoc entry, so -explain never prints an undocumented
// rule.
func TestRuleNamesDocumented(t *testing.T) {
	fireable := map[string][]Trigger{
		"alg1":      {TriggerFlow, TriggerCount, TriggerImmediate},
		"alg2":      {TriggerFlow, TriggerWeight, TriggerQueueFull},
		"alg3":      {TriggerFlow, TriggerCount},
		"alg2multi": {TriggerFlow, TriggerWeight, TriggerQueueFull},
	}
	for alg, triggers := range fireable {
		for _, tr := range triggers {
			rule := ruleName(alg, tr)
			if trace.RuleDoc(rule) == "" {
				t.Errorf("rule %s has no RuleDoc entry", rule)
			}
		}
	}
	if trace.RuleDoc("offline.dp.cover-open") == "" {
		t.Error("rule offline.dp.cover-open has no RuleDoc entry")
	}
}

// benchStepperInstance is a dense weighted workload for the tracing
// overhead benchmarks.
func benchStepperInstance(b *testing.B) *core.Instance {
	b.Helper()
	in, err := (workload.Spec{
		N: 2000, P: 1, T: 16, Seed: 42,
		Arrival: workload.ArrivalPoisson, Lambda: 0.4,
		Weights: workload.WeightUniform, WMax: 10,
	}).Build()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// driveBench steps the engine across the full horizon.
func driveBench(st *Stepper, in *core.Instance) {
	byTime := map[int64][]core.Job{}
	var last int64
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
		if j.Release > last {
			last = j.Release
		}
	}
	for st.Pending() > 0 || st.Now() <= last {
		st.Step(byTime[st.Now()])
	}
}

// BenchmarkStepperUntraced is the baseline: no sink configured anywhere.
// BenchmarkStepperNilSink passes an explicitly nil sink through the
// option; the acceptance contract is that it stays within noise of the
// baseline (both reduce to the same nil tracer guard).
// BenchmarkStepperRingSink measures the full cost of live tracing.
func BenchmarkStepperUntraced(b *testing.B) {
	in := benchStepperInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driveBench(NewAlg2Stepper(in.T, 64), in)
	}
}

func BenchmarkStepperNilSink(b *testing.B) {
	in := benchStepperInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driveBench(NewAlg2Stepper(in.T, 64, WithSink(nil)), in)
	}
}

func BenchmarkStepperRingSink(b *testing.B) {
	in := benchStepperInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driveBench(NewAlg2Stepper(in.T, 64, WithSink(trace.NewRing(1024))), in)
	}
}

// TestExplanationFlowInequalitiesHold renders alg1 and alg2 decision
// traces through trace.WriteExplanation and checks every flow-open
// "fired because" line numerically: any "a + b = c" in it must add up,
// c must be the flow the engines actually test, f(t+1) = f(t) + w(Q),
// and the printed inequality "c >= G" must be true. The instances are
// dense enough that the flow rule fires with f(t) < G <= f(t+1).
func TestExplanationFlowInequalitiesHold(t *testing.T) {
	sum := regexp.MustCompile(`(\d+) \+ (\d+) = (\d+)`)
	ineq := regexp.MustCompile(`(\d+) >= G = (\d+)$`)
	checked, tight := 0, 0
	for _, alg := range []string{"alg1", "alg2"} {
		weights := workload.WeightUnit
		if alg == "alg2" {
			weights = workload.WeightUniform
		}
		for seed := uint64(1); seed <= 8; seed++ {
			spec := workload.Spec{N: 60, P: 1, T: 6, Seed: seed, Arrival: workload.ArrivalPoisson, Lambda: 0.3, Weights: weights, WMax: 5}
			in, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []int64{8, 40, 120} {
				rec := &trace.Recorder{}
				runTraced(t, alg, in.Canonicalize(), g, rec)
				evs := rec.Events()
				var b strings.Builder
				if err := trace.WriteExplanation(&b, in.T, g, evs); err != nil {
					t.Fatal(err)
				}
				blocks := strings.Split(strings.TrimSuffix(b.String(), "\n\n"), "\n\n")
				if len(blocks) != len(evs) {
					t.Fatalf("%s seed %d G=%d: %d blocks for %d events", alg, seed, g, len(blocks), len(evs))
				}
				for i, ev := range evs {
					if !strings.HasSuffix(ev.Rule, ".flow-open") {
						continue
					}
					var line string
					for _, l := range strings.Split(blocks[i], "\n") {
						if strings.HasPrefix(l, "  fired because ") {
							line = l
						}
					}
					m := ineq.FindStringSubmatch(line)
					if m == nil {
						t.Fatalf("%s seed %d G=%d event %d: no inequality in %q", alg, seed, g, i, line)
					}
					for _, s := range sum.FindAllStringSubmatch(line, -1) {
						if atoi(t, s[1])+atoi(t, s[2]) != atoi(t, s[3]) {
							t.Fatalf("%s seed %d G=%d event %d: false sum in %q", alg, seed, g, i, line)
						}
					}
					lhs, rhs := atoi(t, m[1]), atoi(t, m[2])
					if rhs != g || lhs < rhs {
						t.Fatalf("%s seed %d G=%d event %d: printed inequality is false: %q", alg, seed, g, i, line)
					}
					if want := ev.ProspectiveFlow + ev.QueueWeight; lhs != want {
						t.Fatalf("%s seed %d G=%d event %d: printed flow %d, engines test f(t+1) = %d: %q", alg, seed, g, i, lhs, want, line)
					}
					checked++
					if ev.ProspectiveFlow < g {
						tight++
					}
				}
			}
		}
	}
	if checked == 0 || tight == 0 {
		t.Fatalf("checked %d flow-open lines, %d with f(t) < G; the instances no longer exercise the flow rule", checked, tight)
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
