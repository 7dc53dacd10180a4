package offline

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"calibsched/internal/core"
)

// TestParallelSweepMatchesSequential pins the sweep on hundreds of
// random canonical instances: the one-worker BudgetSweep equals the
// brute-force optimum at every budget (Unschedulable exactly where brute
// force finds no schedule), and the multi-worker sweeps reproduce it entry
// for entry. Run under -race in CI, it also proves the level-synchronous
// fan-out has no data races.
func TestParallelSweepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 805))
	for trial := 0; trial < 300; trial++ {
		in := tinyInstance(rng, 10, 30, 6, 6)
		maxK := in.N() + rng.IntN(3)
		want, err := BudgetSweep(in, maxK)
		if err != nil {
			t.Fatalf("trial %d: sequential sweep: %v", trial, err)
		}
		for k, flow := range want {
			brute, berr := BruteForce(in, k)
			if flow == Unschedulable {
				if berr == nil {
					t.Fatalf("trial %d k=%d: DP unschedulable, brute %d", trial, k, brute.Flow)
				}
				continue
			}
			if berr != nil || brute.Flow != flow {
				t.Fatalf("trial %d k=%d: DP %d != brute (%v, %v)", trial, k, flow, brute, berr)
			}
		}
		for _, workers := range []int{2, 7} {
			got, err := BudgetSweepParallel(in, maxK, workers)
			if err != nil {
				t.Fatalf("trial %d: parallel sweep (workers=%d): %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (workers=%d): parallel sweep %v != sequential %v", trial, workers, got, want)
			}
		}
	}
}

// TestParallelTotalCostMatchesSequential checks the full result triple:
// the one-worker total equals the brute-force optimum and the cost of its
// own valid schedule, and four workers reproduce total, minimizing budget
// and schedule (calendar entries and per-job assignments included).
func TestParallelTotalCostMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 42))
	for trial := 0; trial < 200; trial++ {
		in := tinyInstance(rng, 9, 25, 5, 5)
		g := int64(rng.IntN(40))
		wantTotal, wantK, wantSched, err := OptimalTotalCost(in, g)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		bruteTotal, _, err := BruteForceTotalCost(in, g)
		if err != nil {
			t.Fatalf("trial %d: brute: %v", trial, err)
		}
		if wantTotal != bruteTotal {
			t.Fatalf("trial %d: DP total %d != brute %d", trial, wantTotal, bruteTotal)
		}
		if err := core.Validate(in, wantSched); err != nil {
			t.Fatalf("trial %d: schedule invalid: %v", trial, err)
		}
		if c := core.TotalCost(in, wantSched, g); c != wantTotal || wantSched.NumCalibrations() > wantK {
			t.Fatalf("trial %d: schedule costs %d with %d calibrations, reported %d at k=%d",
				trial, c, wantSched.NumCalibrations(), wantTotal, wantK)
		}
		gotTotal, gotK, gotSched, err := OptimalTotalCostParallel(in, g, 4)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if gotTotal != wantTotal || gotK != wantK {
			t.Fatalf("trial %d: parallel (total=%d, k=%d) != sequential (total=%d, k=%d)",
				trial, gotTotal, gotK, wantTotal, wantK)
		}
		if !reflect.DeepEqual(gotSched, wantSched) {
			t.Fatalf("trial %d: schedules differ\nparallel:   %+v\nsequential: %+v", trial, gotSched, wantSched)
		}
	}
}

func TestParallelOptimalFlowMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 1))
	for trial := 0; trial < 200; trial++ {
		in := tinyInstance(rng, 8, 20, 4, 5)
		k := in.N() // always feasible
		want, err := OptimalFlow(in, k)
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		brute, err := BruteForce(in, k)
		if err != nil {
			t.Fatalf("trial %d: brute: %v", trial, err)
		}
		if want.Flow != brute.Flow || core.Flow(in, want.Schedule) != want.Flow {
			t.Fatalf("trial %d: DP flow %d (schedule flow %d) != brute %d",
				trial, want.Flow, core.Flow(in, want.Schedule), brute.Flow)
		}
		got, err := OptimalFlowParallel(in, k, 3)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		if got.Flow != want.Flow {
			t.Fatalf("trial %d: parallel flow %d != sequential %d", trial, got.Flow, want.Flow)
		}
		if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Fatalf("trial %d: schedules differ\nparallel:   %+v\nsequential: %+v", trial, got.Schedule, want.Schedule)
		}
	}
}

func TestParallelValidation(t *testing.T) {
	in := core.MustInstance(1, 3, []int64{0, 5}, []int64{1, 2})
	if _, err := BudgetSweepParallel(in, -1, 2); err == nil {
		t.Error("negative maxK accepted")
	}
	if _, err := OptimalFlowParallel(in, -1, 2); err == nil {
		t.Error("negative budget accepted")
	}
	if _, _, _, err := OptimalTotalCostParallel(in, -1, 2); err == nil {
		t.Error("negative G accepted")
	}
	dup := core.MustInstance(1, 3, []int64{0, 0}, []int64{1, 2})
	if _, err := BudgetSweepParallel(dup, 2, 2); err == nil {
		t.Error("duplicate release times accepted")
	}
	if _, err := OptimalFlowParallel(core.MustInstance(1, 2, []int64{0, 1, 2}, []int64{1, 1, 1}), 1, 2); err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestParallelEmptyInstance(t *testing.T) {
	in := core.MustInstance(1, 3, nil, nil)
	flows, err := BudgetSweepParallel(in, 2, 4)
	if err != nil || !reflect.DeepEqual(flows, []int64{0, 0, 0}) {
		t.Fatalf("flows = %v, err = %v", flows, err)
	}
	total, bestK, sched, err := OptimalTotalCostParallel(in, 10, 4)
	if err != nil || total != 0 || bestK != 0 || sched == nil {
		t.Fatalf("total = %d, bestK = %d, sched = %v, err = %v", total, bestK, sched, err)
	}
}

// TestParallelWorkerCountsAgree pins that the worker count is a pure
// performance knob: 1, 2, and 16 workers produce identical sweeps.
func TestParallelWorkerCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	in := tinyInstance(rng, 14, 60, 8, 8)
	base, err := BudgetSweepParallel(in, in.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 16, 0} { // 0 = GOMAXPROCS
		got, err := BudgetSweepParallel(in, in.N(), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d sweep %v != workers=1 sweep %v", w, got, base)
		}
	}
}
