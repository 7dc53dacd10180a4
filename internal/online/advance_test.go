package online

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"testing"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/trace"
	"calibsched/internal/workload"
)

// tickRun runs Algorithm 1 or 2 the paper's way, independently of
// runStepper: one Step per tick from time 0 until every job has run.
// FlowAtCalibration is computed from the queue each calibrating step
// sees, not read off decision events.
func tickRun(st *Stepper, in *core.Instance) *Result {
	byTime := map[int64][]core.Job{}
	for _, j := range in.Jobs {
		byTime[j.Release] = append(byTime[j.Release], j)
	}
	res := &Result{}
	for ran := 0; ran < in.N(); {
		arrivals := byTime[st.Now()]
		var flow int64
		if !st.CalibratedNow() {
			flow = prospectiveFlow(st, arrivals)
		}
		ev := st.Step(arrivals)
		if ev.Calibrated {
			res.Triggers = append(res.Triggers, ev.Trigger)
			res.FlowAtCalibration = append(res.FlowAtCalibration, flow)
		}
		if ev.Ran >= 0 {
			ran++
		}
		if st.Now() > in.MaxRelease()+1_000_000 {
			panic("stepper did not finish")
		}
	}
	res.Schedule = st.Schedule(in.N())
	return res
}

// prospectiveFlow is the weighted flow the stepper's queue plus the
// given arrivals would incur if run back to back from the current step,
// in the queue's pop order.
func prospectiveFlow(st *Stepper, arrivals []core.Job) int64 {
	q := queue.NewJobQueue(st.pol.order)
	for _, j := range st.q.Jobs() {
		q.Push(j)
	}
	for _, j := range arrivals {
		q.Push(j)
	}
	var flow int64
	for k := st.Now() + 1; !q.Empty(); k++ {
		j := q.Pop()
		flow += j.Weight * (k - j.Release)
	}
	return flow
}

// engineVariant is one algorithm under one option set.
type engineVariant struct {
	name  string
	batch func(in *core.Instance, g int64, opts ...Option) (*Result, error)
	build func(t, g int64, opts ...Option) *Stepper
	opts  []Option
}

func engineVariants(unweighted bool) []engineVariant {
	vs := []engineVariant{
		{"alg2", Alg2, NewAlg2Stepper, nil},
		{"alg2/flow-only", Alg2, NewAlg2Stepper, []Option{WithFlowTriggerOnly()}},
		{"alg2/lightest-first", Alg2, NewAlg2Stepper, []Option{WithLightestFirst()}},
	}
	if unweighted {
		vs = append(vs,
			engineVariant{"alg1", Alg1, NewAlg1Stepper, nil},
			engineVariant{"alg1/no-immediate", Alg1, NewAlg1Stepper, []Option{WithoutImmediateCalibrations()}},
			engineVariant{"alg1/flow-only", Alg1, NewAlg1Stepper, []Option{WithFlowTriggerOnly()}},
		)
	}
	return vs
}

// TestStepMatchesAdvance is the algorithm-level differential: over every
// workload family, adversarial ones included, the batch run (Advance
// between releases) must reproduce a Step-per-tick run exactly: schedule
// bytes, triggers, FlowAtCalibration and the decision-event stream.
func TestStepMatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for _, fam := range workload.Families() {
		for seed := uint64(1); seed <= 12; seed++ {
			n := 4 + rng.IntN(28)
			T := int64(1 + rng.IntN(8))
			g := int64(rng.IntN(90))
			if seed%4 == 0 {
				g = int64(100 + rng.IntN(400)) // long flow-trigger waits
			}
			in, err := fam.Build(n, 1, T, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range engineVariants(fam.Unweighted) {
				tickRec, batchRec := &trace.Recorder{}, &trace.Recorder{}
				want := tickRun(v.build(in.T, g, append(v.opts, WithSink(tickRec))...), in)
				got, err := v.batch(in, g, append(v.opts, WithSink(batchRec))...)
				if err != nil {
					t.Fatal(err)
				}
				where := fam.Name + " " + v.name
				wb, _ := json.Marshal(want.Schedule)
				gb, _ := json.Marshal(got.Schedule)
				if !bytes.Equal(wb, gb) {
					t.Fatalf("%s seed %d (n=%d T=%d G=%d): schedule\nstep:    %s\nadvance: %s", where, seed, n, T, g, wb, gb)
				}
				if !slices.Equal(want.Triggers, got.Triggers) {
					t.Fatalf("%s seed %d: triggers %v, step %v", where, seed, got.Triggers, want.Triggers)
				}
				if !slices.Equal(want.FlowAtCalibration, got.FlowAtCalibration) {
					t.Fatalf("%s seed %d: FlowAtCalibration %v, step %v", where, seed, got.FlowAtCalibration, want.FlowAtCalibration)
				}
				if !slices.Equal(tickRec.Events(), batchRec.Events()) {
					t.Fatalf("%s seed %d: decision events differ\nstep:    %+v\nadvance: %+v", where, seed, tickRec.Events(), batchRec.Events())
				}
			}
		}
	}
}

// TestAdvanceMatchesIdleSteps pins Advance's contract: from random
// mid-run states (empty queue, waiting queue outside an interval, queue
// running inside an open interval), Advance(to) leaves the stepper with
// the same state bytes and decision events as Step(nil) repeated up to
// `to`, including targets at or before Now().
func TestAdvanceMatchesIdleSteps(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2))
	var inside, outside, idle int
	for trial := 0; trial < 1500; trial++ {
		weighted := trial%2 == 1
		in := randomInstance(rng, 1, weighted)
		vs := engineVariants(!weighted)
		v := vs[rng.IntN(len(vs))]
		g := int64(rng.IntN(60))
		byTime := map[int64][]core.Job{}
		for _, j := range in.Jobs {
			byTime[j.Release] = append(byTime[j.Release], j)
		}

		recA, recB := &trace.Recorder{}, &trace.Recorder{}
		a := v.build(in.T, g, append(v.opts, WithSink(recA))...)
		b := v.build(in.T, g, append(v.opts, WithSink(recB))...)
		for stop := int64(rng.IntN(int(in.MaxRelease()) + 3)); a.Now() < stop; {
			arrivals := byTime[a.Now()]
			a.Step(arrivals)
			b.Step(arrivals)
		}
		switch {
		case a.Pending() == 0:
			idle++
		case a.CalibratedNow():
			inside++
		default:
			outside++
		}
		to := a.Now() - 1 + int64(rng.IntN(int(2*g+4*in.T)+2))
		a.Advance(to)
		for b.Now() < to {
			b.Step(nil)
		}

		sa, err := a.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Fatalf("trial %d %s (T=%d G=%d) Advance(%d): state differs from Step(nil) loop\nadvance: %x\nstep:    %x", trial, v.name, in.T, g, to, sa, sb)
		}
		if !slices.Equal(recA.Events(), recB.Events()) {
			t.Fatalf("trial %d %s: decision events differ\nadvance: %+v\nstep:    %+v", trial, v.name, recA.Events(), recB.Events())
		}
	}
	if inside < 100 || outside < 100 || idle < 100 {
		t.Fatalf("start states: %d inside an interval, %d waiting outside, %d idle; want >= 100 each", inside, outside, idle)
	}
}
