package online

import (
	"fmt"
	"math"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/simul"
	"calibsched/internal/trace"
)

// Stepper is the one implementation of Algorithms 1 and 2: an
// incremental state machine driven by the caller, matching the paper's
// online information model (the algorithm learns of a job only when the
// caller feeds it). calibserved serves it as an Engine, and the batch
// Alg1/Alg2 drive it over a whole instance. This is also how an adaptive
// adversary interacts with the algorithm without replays (package
// lowerbound uses the batch form only because determinism makes replay
// equivalent).
//
// Step simulates one time step as the paper's pseudocode does and is the
// per-tick reference. Advance is the fast path over steps without
// arrivals: it jumps to the solved flow-trigger time or the end of the
// open interval and runs an interval's jobs in one pass, leaving the
// stepper exactly as repeated Step(nil) calls would.
//
// Usage:
//
//	st := online.NewAlg1Stepper(T, G)
//	for t := int64(0); !done; t++ {
//	    ev := st.Step(arrivalsAt(t))   // jobs released at the current step
//	    // ev reports whether the machine calibrated and/or ran a job.
//	}
//	sched := st.Schedule(n)
//
// Step must be called for consecutive time steps starting at 0, with
// Advance (or SkipIdle) standing in for any run of Step(nil) calls.
type Stepper struct {
	t      int64
	g      int64
	T      int64
	pol    singlePolicy
	tracer *decisionTracer // nil when tracing is off

	q            *queue.JobQueue
	calStart     int64
	calEnd       int64
	hadInterval  bool
	intervalFlow int64

	calendar []core.Calibration
	triggers []Trigger
	// starts holds each job's start, indexed by job ID: -1 for a job not
	// started, and IDs at or past its length have not started either.
	starts []int64
}

// singlePolicy captures how Algorithms 1 and 2 differ inside Stepper.
type singlePolicy struct {
	alg              string // rule-identifier prefix for decision events
	order            func(a, b core.Job) bool
	countTrigger     bool // Alg1: |Q| >= G/T (as T*|Q| >= G)
	weightTrigger    bool // Alg2: sum w >= G/T (as T*sum >= G)
	queueFullTrigger bool // Alg2: |Q| >= T
	immediate        bool // Alg1: calibrate on arrival after a light interval
}

// StepEvent reports what happened during one time step.
type StepEvent struct {
	// Time is the step that was just simulated.
	Time int64
	// Calibrated reports a calibration at this step, with Trigger set.
	Calibrated bool
	Trigger    Trigger
	// Ran is the ID of the job scheduled at this step, or -1.
	Ran int
}

// NewAlg1Stepper returns an incremental Algorithm 1 (unweighted, one
// machine).
func NewAlg1Stepper(t, g int64, opts ...Option) *Stepper {
	o := buildOptions(opts)
	return newStepper(t, g, singlePolicy{
		alg:          "alg1",
		order:        queue.ByRelease,
		countTrigger: !o.FlowTriggerOnly,
		immediate:    !o.NoImmediateCalibrations && !o.FlowTriggerOnly,
	}, o)
}

// NewAlg2Stepper returns an incremental Algorithm 2 (weighted, one
// machine).
func NewAlg2Stepper(t, g int64, opts ...Option) *Stepper {
	o := buildOptions(opts)
	order := queue.ByWeightDesc
	if o.LightestFirst {
		order = queue.ByWeightAsc
	}
	return newStepper(t, g, singlePolicy{
		alg:              "alg2",
		order:            order,
		weightTrigger:    !o.FlowTriggerOnly,
		queueFullTrigger: !o.FlowTriggerOnly,
	}, o)
}

func newStepper(t, g int64, pol singlePolicy, o Options) *Stepper {
	return &Stepper{
		g: g, T: t, pol: pol,
		tracer:   newDecisionTracer(o.Sink, pol.alg, g),
		q:        queue.NewJobQueue(pol.order),
		calStart: -1, calEnd: -1,
	}
}

// Now returns the next step Step will simulate.
func (s *Stepper) Now() int64 { return s.t }

// Pending returns the number of jobs waiting in the queue.
func (s *Stepper) Pending() int { return s.q.Len() }

// Step simulates the current time step with the given arrivals (released
// exactly now) and advances the clock. Arrivals with a release time other
// than the current step are rejected with a panic: the caller owns the
// clock and must not time-travel.
func (s *Stepper) Step(arrivals []core.Job) StepEvent {
	ev := StepEvent{Time: s.t, Ran: -1}
	for _, j := range arrivals {
		if j.Release != s.t {
			panic(fmt.Sprintf("online: stepper fed job released at %d during step %d", j.Release, s.t))
		}
		s.q.Push(j)
	}
	calibrated := s.CalibratedNow()
	if !calibrated && !s.q.Empty() {
		if tr := s.decide(len(arrivals) > 0); tr != TriggerNone {
			s.open(tr)
			calibrated = true
			ev.Calibrated, ev.Trigger = true, tr
		}
	}
	if calibrated && !s.q.Empty() {
		ev.Ran = s.run()
	}
	s.t++
	return ev
}

// Advance simulates the steps from Now() up to (not including) to, with
// no arrivals, leaving the stepper exactly as Step(nil) repeated
// (to - Now()) times would: same schedule, triggers, decision events and
// state bytes. It costs O(calibrations + jobs run) rather than O(to -
// Now()). Outside an open interval no rule but the flow trigger can newly
// fire without an arrival, so the clock jumps to the first step tau with
// f(tau+1) >= G; inside one, every step runs the front job until the
// interval ends or the queue drains. No-op when to <= Now().
func (s *Stepper) Advance(to int64) {
	for s.t < to && !s.q.Empty() {
		if !s.CalibratedNow() {
			tr := s.decide(false)
			if tr == TriggerNone {
				s.t = min(s.flowTriggerTime(), to)
				continue
			}
			s.open(tr)
		}
		for end := min(s.calEnd, to); s.t < end && !s.q.Empty(); s.t++ {
			s.run()
		}
	}
	s.t = max(s.t, to)
}

// decide evaluates the calibration rules of Algorithms 1 and 2 at the
// current step, for a non-empty queue outside an open interval; arrived
// reports whether jobs were released at this step (Algorithm 1's
// immediate rule).
func (s *Stepper) decide(arrived bool) Trigger {
	switch {
	case s.pol.countTrigger && core.MustMul(int64(s.q.Len()), s.T) >= s.g:
		return TriggerCount
	case s.pol.weightTrigger && core.MustMul(s.q.TotalWeight(), s.T) >= s.g:
		return TriggerWeight
	case s.pol.queueFullTrigger && int64(s.q.Len()) >= s.T:
		return TriggerQueueFull
	case s.q.FlowIfScheduledFrom(s.t+1) >= s.g:
		return TriggerFlow
	case s.pol.immediate && s.hadInterval && 2*s.intervalFlow < s.g && arrived:
		return TriggerImmediate
	}
	return TriggerNone
}

// open calibrates the machine at the current step for trigger tr.
func (s *Stepper) open(tr Trigger) {
	s.calendar = append(s.calendar, core.Calibration{Machine: 0, Start: s.t})
	s.triggers = append(s.triggers, tr)
	if s.tracer != nil {
		s.tracer.emit(s.t, 0, tr, s.q, len(s.calendar))
	}
	s.calStart, s.calEnd = s.t, s.t+s.T
	s.hadInterval = true
	s.intervalFlow = 0
}

// run starts the queue's front job at the current step and returns its
// ID.
func (s *Stepper) run() int {
	j := s.q.Pop()
	s.setStart(j.ID, s.t)
	s.intervalFlow += j.Flow(s.t)
	return j.ID
}

// flowTriggerTime solves for the first step tau at which the flow trigger
// fires with no further arrivals: the smallest tau with f(tau+1) =
// W*(tau+1) + C >= G. decide has just found it false at Now(), so tau is
// later; the max keeps the clock moving regardless.
func (s *Stepper) flowTriggerTime() int64 {
	w, c := s.q.FlowCoefficients()
	return max(simul.CeilDiv(s.g-c, w)-1, s.t+1)
}

// SkipIdle implements IdleSkipper: with the queue empty, every trigger
// and the run step are gated on a non-empty queue, so Advance over the
// idle stretch only moves the clock.
func (s *Stepper) SkipIdle(to int64) {
	if !s.q.Empty() {
		panic(fmt.Sprintf("online: SkipIdle(%d) with %d jobs pending", to, s.q.Len()))
	}
	s.Advance(to)
}

// CalibratedNow reports whether the machine is calibrated for the step
// Step would simulate next.
func (s *Stepper) CalibratedNow() bool {
	return s.calStart >= 0 && s.calStart <= s.t && s.t < s.calEnd
}

// Schedule assembles the schedule built so far for an n-job instance.
// Unscheduled jobs remain unassigned (Start -1); a complete run leaves
// none.
func (s *Stepper) Schedule(n int) *core.Schedule {
	sched := core.NewSchedule(n)
	sched.Calendar = append(core.Calendar(nil), s.calendar...)
	for id, start := range s.starts {
		if start >= 0 {
			sched.Assign(id, 0, start)
		}
	}
	return sched
}

// setStart records that job id started at start, growing starts to
// cover id.
func (s *Stepper) setStart(id int, start int64) {
	for len(s.starts) <= id {
		s.starts = append(s.starts, -1)
	}
	s.starts[id] = start
}

// Jobs implements Engine.
func (s *Stepper) Jobs() (queued []core.Job, starts []int64) {
	return s.q.Jobs(), s.starts
}

// Triggers returns the trigger per calendar entry so far.
func (s *Stepper) Triggers() []Trigger {
	return append([]Trigger(nil), s.triggers...)
}

// Alg1 runs Algorithm 1 of the paper (online unweighted calibration on one
// machine, 3-competitive). The instance must have P = 1 and unit weights.
func Alg1(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	if err := checkInput(in, g, true, true); err != nil {
		return nil, err
	}
	return runStepper(in, g, NewAlg1Stepper, opts), nil
}

// Alg2 runs Algorithm 2 of the paper (online weighted calibration on one
// machine, 12-competitive). The instance must have P = 1; weights are
// arbitrary positive integers.
func Alg2(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	if err := checkInput(in, g, true, false); err != nil {
		return nil, err
	}
	return runStepper(in, g, NewAlg2Stepper, opts), nil
}

// runStepper runs a whole instance through a fresh stepper: Advance to
// each distinct release time, Step with the jobs released then, and
// Advance until the queue drains, so the run costs O((n + calibrations) *
// queue cost) whatever the time horizon. With Options.Naive it calls Step
// for every tick instead, the paper-literal reference. The stepper keeps
// no per-calibration flow, so Result.FlowAtCalibration is read off each
// calibration's decision event, which still reaches the caller's sink
// unchanged.
func runStepper(in *core.Instance, g int64, build func(t, g int64, opts ...Option) *Stepper, opts []Option) *Result {
	o := buildOptions(opts)
	rec := &flowRecorder{next: o.Sink}
	st := build(in.T, g, append(opts[:len(opts):len(opts)], WithSink(rec))...)
	st.starts = make([]int64, 0, in.N())
	k := 0
	for jobs := in.Jobs; len(jobs) > 0; jobs = jobs[k:] {
		r := jobs[0].Release
		for k = 1; k < len(jobs) && jobs[k].Release == r; k++ {
		}
		if o.Naive {
			for st.Now() < r {
				st.Step(nil)
			}
		} else {
			st.Advance(r)
		}
		st.Step(jobs[:k])
	}
	if o.Naive {
		for st.Pending() > 0 {
			st.Step(nil)
		}
	} else {
		st.Advance(math.MaxInt64) // returns once the queue drains
	}
	return &Result{Schedule: st.Schedule(in.N()), Triggers: st.triggers, FlowAtCalibration: rec.flows}
}

// flowRecorder is the batch run's decision sink: it keeps each event's
// ProspectiveFlow, the flow at that calibration, and forwards the event to
// the caller's sink, if any.
type flowRecorder struct {
	flows []int64
	next  trace.Sink
}

// Emit implements trace.Sink.
func (r *flowRecorder) Emit(ev trace.DecisionEvent) {
	r.flows = append(r.flows, ev.ProspectiveFlow)
	if r.next != nil {
		r.next.Emit(ev)
	}
}
