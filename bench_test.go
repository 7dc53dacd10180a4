// Benchmarks, one per experiment in the reproduction index (DESIGN.md
// section 4) plus micro-benchmarks for the algorithmic kernels. The
// experiment benchmarks run the reduced (Quick) grids so `go test
// -bench=.` regenerates every table in minutes; `cmd/calibbench` runs the
// full grids recorded in EXPERIMENTS.md.
package calibsched_test

import (
	"io"
	"testing"

	"calibsched"
	"calibsched/internal/experiments"
	"calibsched/internal/online"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(io.Discard, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Pass {
			b.Fatalf("%s verdict FAIL: %v", id, rep.Violations)
		}
	}
}

func BenchmarkE01LowerBound(b *testing.B)         { benchExperiment(b, "e1") }
func BenchmarkE02Alg1Ratio(b *testing.B)          { benchExperiment(b, "e2") }
func BenchmarkE03Alg2Ratio(b *testing.B)          { benchExperiment(b, "e3") }
func BenchmarkE04Alg3Ratio(b *testing.B)          { benchExperiment(b, "e4") }
func BenchmarkE05DPScaling(b *testing.B)          { benchExperiment(b, "e5") }
func BenchmarkE06Tradeoff(b *testing.B)           { benchExperiment(b, "e6") }
func BenchmarkE07ImmediateAblation(b *testing.B)  { benchExperiment(b, "e7") }
func BenchmarkE08ExtractionAblation(b *testing.B) { benchExperiment(b, "e8") }
func BenchmarkE09Baselines(b *testing.B)          { benchExperiment(b, "e9") }
func BenchmarkE10LP(b *testing.B)                 { benchExperiment(b, "e10") }
func BenchmarkE11Obs21Ablation(b *testing.B)      { benchExperiment(b, "e11") }
func BenchmarkE12Invariants(b *testing.B)         { benchExperiment(b, "e12") }
func BenchmarkE13SpecialCases(b *testing.B)       { benchExperiment(b, "e13") }
func BenchmarkE14StructuralLemmas(b *testing.B)   { benchExperiment(b, "e14") }
func BenchmarkE15WeightedMulti(b *testing.B)      { benchExperiment(b, "e15") }
func BenchmarkE16ChargingLedger(b *testing.B)     { benchExperiment(b, "e16") }
func BenchmarkE17Lemma37(b *testing.B)            { benchExperiment(b, "e17") }

// --- micro-benchmarks for the kernels ---

func benchInstance(n int, p int, lambda float64, weighted bool) *calibsched.Instance {
	spec := calibsched.WorkloadSpec{
		N: n, P: p, T: 16, Seed: 99,
		Arrival: calibsched.ArrivalPoisson, Lambda: lambda,
		Weights: calibsched.WeightUnit,
	}
	if weighted {
		spec.Weights = calibsched.WeightUniform
		spec.WMax = 10
	}
	return spec.MustBuild()
}

func BenchmarkAlg1Online(b *testing.B) {
	in := benchInstance(2000, 1, 0.4, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg1(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg2Online(b *testing.B) {
	in := benchInstance(2000, 1, 0.4, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg2(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg3Online(b *testing.B) {
	in := benchInstance(2000, 4, 1.5, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg3(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg2MultiOnline(b *testing.B) {
	in := benchInstance(2000, 4, 1.5, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg2Multi(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFastForward vs BenchmarkSimNaive quantify the event-skipping
// ablation: identical schedules, very different step counts (a lone job
// waits Theta(G) steps under the naive clock).
func BenchmarkSimFastForward(b *testing.B) {
	in := benchInstance(300, 1, 0.01, false) // sparse: long idle gaps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg1(in, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimNaive(b *testing.B) {
	in := benchInstance(300, 1, 0.01, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.Alg1(in, 4096, online.WithNaiveStepping()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineDP(b *testing.B) {
	in := benchInstance(64, 1, 0.4, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.OptimalFlow(in, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineBudgetSweep(b *testing.B) {
	in := benchInstance(48, 1, 0.4, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.BudgetSweep(in, in.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObservation21Assign(b *testing.B) {
	in := benchInstance(1000, 2, 0.8, false)
	times := make([]int64, 0, 128)
	for t := int64(0); len(times) < 128; t += 20 {
		times = append(times, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calibsched.AssignTimes(in, times); err != nil {
			b.Fatal(err)
		}
	}
}
