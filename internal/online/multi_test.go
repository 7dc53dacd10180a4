package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/trace"
	"calibsched/internal/workload"
)

// multiVariant is one multi-machine algorithm: its policy and its batch
// entry point.
type multiVariant struct {
	name  string
	pol   policy
	batch func(in *core.Instance, g int64, opts ...Option) (*Result, error)
}

var multiVariants = []multiVariant{
	{"alg3", alg3Policy, Alg3},
	{"alg2multi", alg2MultiPolicy, Alg2Multi},
}

// instanceFor returns in as v runs it: Algorithm 3 takes the arrivals
// with every weight set to 1.
func (v multiVariant) instanceFor(in *core.Instance) *core.Instance {
	if v.name == "alg3" {
		return unitWeights(in)
	}
	return in
}

// multiTickRun runs Algorithm 3 or Alg2Multi the paper's way,
// independently of runMulti: one Step per tick from time 0 until every
// job has run. It also counts the steps that stopped at the
// degenerate-recalibration guard.
func multiTickRun(in *core.Instance, g int64, pol policy, sink trace.Sink) (res *Result, blocked int) {
	s := newMultiStepper(in, g, pol, Options{Sink: sink})
	byTime := map[int64][]core.Job{}
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	for s.t <= in.MaxRelease() || !s.q.Empty() {
		s.Step(byTime[s.t])
		if s.blocked {
			blocked++
		}
		if s.t > in.MaxRelease()+1_000_000 {
			panic("multi-machine stepper did not finish")
		}
	}
	return &Result{Schedule: s.sched, Triggers: s.triggers, JobsByCalibration: s.jobsByCal}, blocked
}

// TestMultiStepMatchesAdvance is the multi-machine differential: the
// batch Alg3 and Alg2Multi, both on Advance and with WithNaiveStepping,
// must reproduce a Step-per-tick run exactly (schedule bytes, triggers,
// JobsByCalibration and the decision-event stream) over every workload
// family at P = 1..4 and over random same-time bursts. The bursts reach
// the degenerate-recalibration guard, which the test requires.
func TestMultiStepMatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	blocked := 0
	check := func(where string, in *core.Instance, g int64) {
		t.Helper()
		for _, v := range multiVariants {
			vin := v.instanceFor(in)
			tickRec := &trace.Recorder{}
			want, b := multiTickRun(vin, g, v.pol, tickRec)
			blocked += b
			wb, _ := json.Marshal(want.Schedule)
			for _, naive := range []bool{false, true} {
				rec := &trace.Recorder{}
				opts := []Option{WithoutObservationReplay(), WithSink(rec)}
				if naive {
					opts = append(opts, WithNaiveStepping())
				}
				got, err := v.batch(vin, g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s %s naive=%v (P=%d T=%d G=%d)", where, v.name, naive, vin.P, vin.T, g)
				if err := core.Validate(vin, got.Schedule); err != nil {
					t.Fatalf("%s: invalid schedule: %v", at, err)
				}
				gb, _ := json.Marshal(got.Schedule)
				if !bytes.Equal(wb, gb) {
					t.Fatalf("%s: schedule\nstep:  %s\nbatch: %s", at, wb, gb)
				}
				if !slices.Equal(want.Triggers, got.Triggers) {
					t.Fatalf("%s: triggers %v, step %v", at, got.Triggers, want.Triggers)
				}
				if !slices.EqualFunc(want.JobsByCalibration, got.JobsByCalibration, slices.Equal) {
					t.Fatalf("%s: JobsByCalibration %v, step %v", at, got.JobsByCalibration, want.JobsByCalibration)
				}
				if !slices.Equal(tickRec.Events(), rec.Events()) {
					t.Fatalf("%s: decision events differ\nstep:  %+v\nbatch: %+v", at, tickRec.Events(), rec.Events())
				}
			}
		}
	}
	for _, fam := range workload.Families() {
		for seed := uint64(1); seed <= 12; seed++ {
			n := 4 + rng.IntN(36)
			p := 1 + rng.IntN(4)
			T := int64(1 + rng.IntN(8))
			g := int64(rng.IntN(90))
			if seed%4 == 0 {
				g = int64(100 + rng.IntN(400)) // long flow-trigger waits
			}
			in, err := fam.Build(n, p, T, seed)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s seed %d", fam.Name, seed), in, g)
		}
	}
	for trial := 0; trial < 600; trial++ {
		T := int64(1 + rng.IntN(8))
		in, err := burstInstance(1+rng.IntN(30), 1+rng.IntN(4), T, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("burst %d", trial), in, int64(rng.IntN(int(4*T*T)+10)))
	}
	if blocked < 20 {
		t.Fatalf("only %d steps reached the degenerate-recalibration guard, want >= 20", blocked)
	}
}

// multiState renders everything a multiStepper decides from.
func multiState(s *multiStepper) string {
	return fmt.Sprintf("t=%d rr=%d blocked=%v machines=%v queue=%v calendar=%v starts=%v triggers=%v jobs=%v",
		s.t, s.rr, s.blocked, s.machines, s.q.Jobs(), s.sched.Calendar, s.sched.Assignments, s.triggers, s.jobsByCal)
}

// TestMultiAdvanceMatchesIdleSteps pins the multi-machine Advance
// contract: from random mid-run states, Advance(to) leaves the stepper
// exactly as Step(nil) repeated up to to would, with the same decision
// events, targets at or before the current step included.
func TestMultiAdvanceMatchesIdleSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 3))
	for trial := 0; trial < 1500; trial++ {
		v := multiVariants[trial%2]
		in, err := burstInstance(1+rng.IntN(30), 1+rng.IntN(4), int64(1+rng.IntN(8)), uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in = v.instanceFor(in)
		g := int64(rng.IntN(int(4*in.T*in.T) + 10))
		byTime := map[int64][]core.Job{}
		for _, j := range in.Jobs {
			byTime[j.Release] = append(byTime[j.Release], j)
		}
		recA, recB := &trace.Recorder{}, &trace.Recorder{}
		a := newMultiStepper(in, g, v.pol, Options{Sink: recA})
		b := newMultiStepper(in, g, v.pol, Options{Sink: recB})
		for stop := int64(rng.IntN(int(in.MaxRelease()) + 3)); a.t < stop; {
			arrivals := byTime[a.t]
			a.Step(arrivals)
			b.Step(arrivals)
		}
		to := a.t - 1 + int64(rng.IntN(int(2*g+4*in.T)+2))
		a.Advance(to)
		for b.t < to {
			b.Step(nil)
		}
		if sa, sb := multiState(a), multiState(b); sa != sb {
			t.Fatalf("trial %d %s (P=%d T=%d G=%d) Advance(%d): state differs from Step(nil) loop\nadvance: %s\nstep:    %s", trial, v.name, in.P, in.T, g, to, sa, sb)
		}
		if !slices.Equal(recA.Events(), recB.Events()) {
			t.Fatalf("trial %d %s: decision events differ\nadvance: %+v\nstep:    %+v", trial, v.name, recA.Events(), recB.Events())
		}
	}
}

// ones returns n unit weights.
func ones(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestMultiResumesAfterBlockedGuard pins the step after the
// degenerate-recalibration guard: a burst at time 0 fills one machine's
// window while a count (Algorithm 3) or queue-full (Alg2Multi) trigger
// still holds, and the guard defers the next calibration by exactly one
// step, inside Advance as in the per-tick run, not to the later
// flow-trigger time.
func TestMultiResumesAfterBlockedGuard(t *testing.T) {
	for _, tc := range []struct {
		v      multiVariant
		in     *core.Instance
		g      int64
		starts []int64
		trs    []Trigger
	}{
		{
			multiVariants[0], core.MustInstance(1, 8, make([]int64, 17), ones(17)), 61,
			[]int64{0, 1, 2, 4, 9}, []Trigger{TriggerCount, TriggerCount, TriggerCount, TriggerFlow, TriggerFlow},
		},
		{
			multiVariants[1], core.MustInstance(1, 1, make([]int64, 3), []int64{1, 2, 3}), 7,
			[]int64{0, 1, 2}, []Trigger{TriggerQueueFull, TriggerQueueFull, TriggerQueueFull},
		},
	} {
		for _, naive := range []bool{false, true} {
			opts := []Option{WithoutObservationReplay()}
			if naive {
				opts = append(opts, WithNaiveStepping())
			}
			res, err := tc.v.batch(tc.in, tc.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var starts []int64
			for _, c := range res.Schedule.Calendar {
				starts = append(starts, c.Start)
			}
			if !slices.Equal(starts, tc.starts) || !slices.Equal(res.Triggers, tc.trs) {
				t.Errorf("%s naive=%v: calibrations at %v with %v, want %v with %v", tc.v.name, naive, starts, res.Triggers, tc.starts, tc.trs)
			}
		}
	}
}

// TestJobsByCalibrationCoversEveryJob checks Observation 3.9's J_i
// bookkeeping for both multi-machine algorithms: every job appears in
// exactly one entry, and that entry's calibration is on the job's
// machine and covers its start.
func TestJobsByCalibrationCoversEveryJob(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 2))
	for trial := 0; trial < 400; trial++ {
		v := multiVariants[trial%2]
		in := v.instanceFor(randomInstance(rng, 1+rng.IntN(4), true))
		g := int64(rng.IntN(60))
		res, err := v.batch(in, g, WithoutObservationReplay())
		if err != nil {
			t.Fatal(err)
		}
		cal := res.Schedule.Calendar
		if len(res.JobsByCalibration) != len(cal) {
			t.Fatalf("trial %d %s: %d entries for %d calibrations", trial, v.name, len(res.JobsByCalibration), len(cal))
		}
		seen := make([]int, in.N())
		for i, jobs := range res.JobsByCalibration {
			for _, id := range jobs {
				seen[id]++
				a := res.Schedule.Assignments[id]
				if a.Machine != cal[i].Machine || a.Start < cal[i].Start || a.Start >= cal[i].Start+in.T {
					t.Fatalf("trial %d %s (P=%d T=%d G=%d): job %d at %+v attributed to calibration %+v", trial, v.name, in.P, in.T, g, id, a, cal[i])
				}
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d %s (P=%d T=%d G=%d): job %d appears in %d entries", trial, v.name, in.P, in.T, g, id, n)
			}
		}
	}
}
