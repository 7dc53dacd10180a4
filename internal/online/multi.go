package online

import (
	"fmt"
	"math"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/simul"
)

// Alg3 runs Algorithm 3 of the paper (online unweighted calibration on
// multiple machines, 12-competitive). The instance may have any P >= 1;
// weights must be 1.
//
// The paper's algorithm assigns jobs to intervals explicitly the moment it
// calibrates (so they stop counting as waiting jobs), and notes that in
// practice "one would almost certainly only use Algorithm 3 to determine
// calibration times, and use Observation 2.1 for the actual assignments".
// That replay is the default here; WithoutObservationReplay keeps the
// explicit packing (the variant actually analyzed), and E11 measures the
// gap.
func Alg3(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	if err := checkInput(in, g, false, true); err != nil {
		return nil, err
	}
	return runMulti(in, g, alg3Policy, opts), nil
}

// Alg2Multi schedules weighted jobs on multiple machines online — the
// setting the paper leaves open ("constant-competitive for weighted jobs
// on a single machine"; no weighted multi-machine algorithm is given).
//
// EXTENSION, NOT FROM THE PAPER. The algorithm fuses Algorithm 2's
// triggers with Algorithm 3's round-robin calendar construction:
//
//   - maintain one queue of waiting jobs ordered heaviest-first;
//   - while the queued weight reaches G/T, or T jobs wait, or the
//     prospective flow reaches G: calibrate the next machine round-robin
//     and reserve up to ceil(G/T) waiting jobs for it (heaviest first),
//     so they stop counting toward further triggers;
//   - the final assignment replays the calendar through the Observation
//     2.1 list scheduler, which is optimal for the calendar.
//
// No competitive ratio is proved here; experiment E15 measures it against
// the weighted Figure 1 LP bound (worst measured cells are small constant
// factors). On P = 1 the calendar decisions coincide with Algorithm 2's
// except that reserved jobs stop feeding triggers one step earlier, so
// costs may differ slightly in either direction on ties.
func Alg2Multi(in *core.Instance, g int64, opts ...Option) (*Result, error) {
	if err := checkInput(in, g, false, false); err != nil {
		return nil, err
	}
	return runMulti(in, g, alg2MultiPolicy, opts), nil
}

// The multi-machine policies: Algorithm 3 serves in release order on the
// count and flow triggers; Alg2Multi serves heaviest-first on Algorithm
// 2's weight, queue-full and flow triggers.
var (
	alg3Policy      = policy{alg: "alg3", order: queue.ByRelease, countTrigger: true}
	alg2MultiPolicy = policy{alg: "alg2multi", order: queue.ByWeightDesc, weightTrigger: true, queueFullTrigger: true}
)

// runMulti runs a whole instance through a fresh multiStepper, as
// runStepper does for Algorithms 1 and 2: Advance to each distinct
// release time and Step with the jobs released then, or with
// Options.Naive Step every tick. Unless Options.NoObservationReplay is
// set, the calendar is then replayed through the Observation 2.1
// assigner.
func runMulti(in *core.Instance, g int64, pol policy, opts []Option) *Result {
	o := buildOptions(opts)
	s := newMultiStepper(in, g, pol, o)
	k := 0
	for jobs := in.Jobs; len(jobs) > 0; jobs = jobs[k:] {
		r := jobs[0].Release
		for k = 1; k < len(jobs) && jobs[k].Release == r; k++ {
		}
		if o.Naive {
			for s.t < r {
				s.Step(nil)
			}
		} else {
			s.Advance(r)
		}
		s.Step(jobs[:k])
	}
	if o.Naive {
		for !s.q.Empty() {
			s.Step(nil)
		}
	} else {
		s.Advance(math.MaxInt64) // returns once the queue drains
	}
	if o.NoObservationReplay {
		return &Result{Schedule: s.sched, Triggers: s.triggers, JobsByCalibration: s.jobsByCal}
	}
	times := make([]int64, len(s.sched.Calendar))
	for i, c := range s.sched.Calendar.Sorted() {
		times[i] = c.Start
	}
	replayed, err := AssignTimes(in, times)
	if err != nil {
		// The explicit packing proves the calendar has room for every job,
		// and the Observation 2.1 assignment is optimal for the calendar,
		// so replay cannot fail.
		panic(fmt.Sprintf("online: Observation 2.1 replay of the %s calendar failed: %v", pol.alg, err))
	}
	return &Result{Schedule: replayed, Triggers: s.triggers}
}

// multiStepper is the one implementation of Algorithm 3 and Alg2Multi,
// in Stepper's shape: Step simulates one time step as the paper's
// pseudocode does and is the per-tick reference; Advance is the fast
// path over steps without arrivals, leaving the stepper exactly as
// repeated Step(nil) calls would. The two algorithms differ only in
// their policy: queue order, trigger set and rule prefix.
type multiStepper struct {
	t       int64
	g       int64
	T       int64
	packCap int64 // jobs packed per fresh interval: ceil(G/T), at least 1
	pol     policy
	tracer  *decisionTracer // nil when tracing is off

	q        *queue.JobQueue
	machines []machine
	rr       int // round-robin cursor: the next calibration goes to machine rr % P
	// blocked reports that the last step stopped calibrating at the
	// degenerate-recalibration guard with a trigger still holding.
	blocked bool

	sched     *core.Schedule
	triggers  []Trigger
	jobsByCal [][]int
}

// machine is one machine's calibrated horizon and occupancy.
type machine struct {
	end int64 // one past the last calibrated step; 0 if never calibrated
	// busy is one past the machine's last occupied step. The occupied
	// steps at or after the current step t always form the block
	// [t, busy), empty when busy <= t: packing fills the first free
	// steps from t and serving fills t only when t is free, so by
	// induction the block stays contiguous. So t is free exactly when
	// busy <= t. Jobs go only into calibrated steps, so busy <= end.
	busy   int64
	calIdx int // calendar index of the machine's latest calibration
}

func newMultiStepper(in *core.Instance, g int64, pol policy, o Options) *multiStepper {
	packCap := int64(1)
	if g > 0 {
		packCap = simul.CeilDiv(g, in.T)
	}
	return &multiStepper{
		g: g, T: in.T, packCap: packCap, pol: pol,
		tracer:   newDecisionTracer(o.Sink, pol.alg, g),
		q:        queue.NewJobQueue(pol.order),
		machines: make([]machine, in.P),
		sched:    core.NewSchedule(in.N()),
	}
}

// Step simulates the current time step with the given arrivals, which
// the caller guarantees were released exactly now, and advances the clock.
func (s *multiStepper) Step(arrivals []core.Job) {
	for _, j := range arrivals {
		s.q.Push(j)
	}
	s.step()
	s.t++
}

// Advance simulates the steps from the current one up to (not including)
// to, with no arrivals, leaving the stepper exactly as Step(nil) repeated
// up to to would. Between steps where something happens it jumps over
// steps where nothing can: see next.
func (s *multiStepper) Advance(to int64) {
	for s.t < to && !s.q.Empty() {
		s.step()
		s.t = min(s.next(), to)
	}
	s.t = max(s.t, to)
}

// step runs the current step: steps 6-9 of Algorithm 3 (every calibrated
// machine idle now runs the queue's front job), then steps 10-14 (while a
// trigger holds, calibrate the next machine round-robin and pack jobs
// into the fresh interval).
func (s *multiStepper) step() {
	s.run()
	s.blocked = false
	for !s.q.Empty() {
		tr := s.decide()
		if tr == TriggerNone {
			return
		}
		// Guard against the degenerate case the paper's pseudocode
		// leaves open: if the round-robin machine's window [t, t+T) is
		// already fully occupied, recalibrating it now adds no capacity
		// (and the literal while-loop would spin forever). Defer until a
		// slot frees up, which is the next step. See DESIGN.md note 7.
		if s.machines[s.rr%len(s.machines)].busy >= s.t+s.T {
			s.blocked = true
			return
		}
		s.open(tr)
	}
}

// decide evaluates the policy's calibration rules at the current step
// for a non-empty queue: count, weight, queue-full, then flow (f(t+1) >=
// G). They are Stepper.decide's rules without Algorithm 1's immediate
// rule; sharing one helper between the two, which the compiler does not
// inline, slowed BenchmarkSimFastForward by about 8% (2-vCPU Xeon,
// -cpu 1).
func (s *multiStepper) decide() Trigger {
	switch {
	case s.pol.countTrigger && core.MustMul(int64(s.q.Len()), s.T) >= s.g:
		return TriggerCount
	case s.pol.weightTrigger && core.MustMul(s.q.TotalWeight(), s.T) >= s.g:
		return TriggerWeight
	case s.pol.queueFullTrigger && int64(s.q.Len()) >= s.T:
		return TriggerQueueFull
	case s.q.FlowIfScheduledFrom(s.t+1) >= s.g:
		return TriggerFlow
	}
	return TriggerNone
}

// run starts the queue's front job on every calibrated machine that is
// idle at the current step.
func (s *multiStepper) run() {
	for mi := range s.machines {
		if s.q.Empty() {
			return
		}
		if m := &s.machines[mi]; s.t < m.end && m.busy <= s.t {
			s.assign(mi, s.t)
			m.busy = s.t + 1
		}
	}
}

// open calibrates the round-robin machine at the current step for
// trigger tr and packs up to packCap waiting jobs into its first free
// steps of the fresh interval, in queue order.
func (s *multiStepper) open(tr Trigger) {
	mi := s.rr % len(s.machines)
	s.rr++
	s.sched.Calibrate(mi, s.t)
	s.triggers = append(s.triggers, tr)
	if s.tracer != nil {
		s.tracer.emit(s.t, mi, tr, s.q, len(s.sched.Calendar))
	}
	s.jobsByCal = append(s.jobsByCal, nil)
	m := &s.machines[mi]
	m.calIdx = len(s.jobsByCal) - 1
	m.end = s.t + s.T // no earlier calibration started after t
	slot := max(s.t, m.busy)
	for packed := int64(0); packed < s.packCap && slot < m.end && !s.q.Empty(); packed++ {
		s.assign(mi, slot)
		slot++
	}
	m.busy = slot
}

// assign starts the queue's front job on machine mi at slot and
// attributes it to the machine's latest calibration.
func (s *multiStepper) assign(mi int, slot int64) {
	j := s.q.Pop()
	s.sched.Assign(j.ID, mi, slot)
	c := s.machines[mi].calIdx
	s.jobsByCal[c] = append(s.jobsByCal[c], j.ID)
}

// next returns the first step after the current one at which a step can
// do anything with no arrivals: the step after a blocked guard, the
// solved flow-trigger time (the smallest tau with f(tau+1) >= G), or the
// first free calibrated step of any machine. The count, weight and
// queue-full triggers read only the queue, which changes between arrivals
// only when a machine runs a job.
func (s *multiStepper) next() int64 {
	if s.blocked || s.q.Empty() {
		return s.t + 1
	}
	w, c := s.q.FlowCoefficients()
	next := max(simul.CeilDiv(s.g-c, w)-1, s.t+1)
	for _, m := range s.machines {
		if free := max(s.t+1, m.busy); free < m.end {
			next = min(next, free)
		}
	}
	return next
}
