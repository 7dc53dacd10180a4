package online

import (
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/queue"
)

// Stepper exposes Algorithms 1 and 2 as incremental state machines driven
// one time step at a time by the caller, exactly matching the paper's
// online information model: the algorithm learns of a job only when the
// caller feeds it. This is how an adaptive adversary interacts with the
// algorithm without replays (package lowerbound uses the batch form only
// because determinism makes replay equivalent; the stepper makes the
// interaction literal and is differentially tested against the batch
// form).
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
// Step must be called for consecutive time steps starting at 0.
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
	arrived := false
	for _, j := range arrivals {
		if j.Release != s.t {
			panic(fmt.Sprintf("online: stepper fed job released at %d during step %d", j.Release, s.t))
		}
		s.q.Push(j)
		arrived = true
	}
	calibrated := s.calStart >= 0 && s.calStart <= s.t && s.t < s.calEnd
	if !calibrated && !s.q.Empty() {
		tr := TriggerNone
		switch {
		case s.pol.countTrigger && core.MustMul(int64(s.q.Len()), s.T) >= s.g:
			tr = TriggerCount
		case s.pol.weightTrigger && core.MustMul(s.q.TotalWeight(), s.T) >= s.g:
			tr = TriggerWeight
		case s.pol.queueFullTrigger && int64(s.q.Len()) >= s.T:
			tr = TriggerQueueFull
		default:
			if s.q.FlowIfScheduledFrom(s.t+1) >= s.g {
				tr = TriggerFlow
			} else if s.pol.immediate && s.hadInterval && 2*s.intervalFlow < s.g && arrived {
				tr = TriggerImmediate
			}
		}
		if tr != TriggerNone {
			s.calendar = append(s.calendar, core.Calibration{Machine: 0, Start: s.t})
			s.triggers = append(s.triggers, tr)
			if s.tracer != nil {
				s.tracer.emit(s.t, 0, tr, s.q, len(s.calendar))
			}
			s.calStart, s.calEnd = s.t, s.t+s.T
			s.hadInterval = true
			s.intervalFlow = 0
			calibrated = true
			ev.Calibrated = true
			ev.Trigger = tr
		}
	}
	if calibrated && !s.q.Empty() {
		j := s.q.Pop()
		s.setStart(j.ID, s.t)
		s.intervalFlow += j.Flow(s.t)
		ev.Ran = j.ID
	}
	s.t++
	return ev
}

// SkipIdle implements IdleSkipper: with the queue empty, every trigger
// in Step is gated on a non-empty queue (TriggerImmediate additionally
// on an arrival this step), and the run block likewise — so Step(nil)
// mutates nothing but the clock, even mid-calibration-interval, and the
// whole idle stretch collapses to one assignment. Differentially pinned
// against literal Step(nil) loops by TestSkipIdleMatchesIdleSteps.
func (s *Stepper) SkipIdle(to int64) {
	if !s.q.Empty() {
		panic(fmt.Sprintf("online: SkipIdle(%d) with %d jobs pending", to, s.q.Len()))
	}
	if to > s.t {
		s.t = to
	}
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
