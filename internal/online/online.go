// Package online implements the three online algorithms of Chau, McCauley,
// Li, and Wang (SPAA 2017) for minimizing calibration cost plus total
// weighted flow time:
//
//   - Alg1: the 3-competitive unweighted single-machine algorithm
//     (Algorithm 1 of the paper),
//   - Alg2: the 12-competitive weighted single-machine algorithm
//     (Algorithm 2),
//   - Alg3: the 12-competitive unweighted multi-machine algorithm
//     (Algorithm 3),
//
// plus AssignTimes, the Observation 2.1 list scheduler that optimally
// assigns jobs once calibration times are fixed.
//
// Algorithms 1 and 2 have one implementation, Stepper, which calibserved
// serves and the batch Alg1/Alg2 drive; Algorithm 3 and Alg2Multi have
// one, multiStepper, which the batch Alg3/Alg2Multi drive. Both have the
// same shape: Step simulates one time step as the paper's pseudocode does
// and is the per-tick reference, and Advance is the fast path, jumping
// between arrivals, interval ends, free machine slots and analytically
// solved flow-trigger times, so a batch run costs time polynomial in the
// number of jobs rather than in the time horizon (a lone job waits
// Theta(G) steps before its flow trigger fires). Every fast path is
// differentially tested against its per-tick reference.
package online

import (
	"fmt"

	"calibsched/internal/core"
	"calibsched/internal/queue"
	"calibsched/internal/trace"
)

// Trigger records why an interval was calibrated.
type Trigger uint8

// Trigger reasons, aligned with the calibration conditions of Algorithms
// 1-3.
const (
	// TriggerNone is the zero value and never appears in results.
	TriggerNone Trigger = iota
	// TriggerFlow: the queued jobs' prospective flow reached G.
	TriggerFlow
	// TriggerCount: at least G/T jobs were waiting (Algorithms 1 and 3).
	TriggerCount
	// TriggerWeight: queued weight reached G/T (Algorithm 2).
	TriggerWeight
	// TriggerQueueFull: T jobs were waiting (Algorithm 2's |Q| = T rule).
	TriggerQueueFull
	// TriggerImmediate: Algorithm 1's immediate calibration after an
	// interval with flow below G/2.
	TriggerImmediate
)

// String returns the trigger's name.
func (tr Trigger) String() string {
	switch tr {
	case TriggerFlow:
		return "flow"
	case TriggerCount:
		return "count"
	case TriggerWeight:
		return "weight"
	case TriggerQueueFull:
		return "queue-full"
	case TriggerImmediate:
		return "immediate"
	default:
		return "none"
	}
}

// Result is an algorithm run: the schedule plus one trigger per calendar
// entry (Triggers[i] explains Schedule.Calendar[i]).
type Result struct {
	Schedule *core.Schedule
	Triggers []Trigger
	// FlowAtCalibration, filled by the single-machine algorithms (1 and
	// 2), records for each calendar entry the prospective flow of the
	// waiting queue at the moment of calibration — the jobs' total flow if
	// they were scheduled consecutively from the calibration step with no
	// further arrivals. This is (up to the one-step convention noted in
	// Lemma 3.7's statement) the paper's f_l^q, and experiment E17 uses it
	// to verify Lemma 3.7 against exhaustive OPT_r.
	FlowAtCalibration []int64
	// JobsByCalibration, filled by Algorithm 3 and Alg2Multi with
	// WithoutObservationReplay, attributes each scheduled job, packed or
	// run on an idle calibrated machine, to the calibration that was most
	// recent on its machine when the algorithm placed it:
	// JobsByCalibration[i] lists the job IDs belonging to
	// Schedule.Calendar[i] in the algorithm's own accounting, so every job
	// appears exactly once. This is the J_i of Observation 3.9 — with
	// overlapping intervals on one machine a purely geometric attribution
	// would differ.
	JobsByCalibration [][]int
}

// Options tune algorithm variants; the zero value selects the paper's
// algorithms as analyzed (with the line-13 typo corrected, see DESIGN.md).
type Options struct {
	// Naive forces per-time-step simulation instead of event skipping:
	// the batch Alg1/Alg2 (Alg3/Alg2Multi) call Stepper.Step
	// (multiStepper.Step) for every tick instead of Advance between
	// arrivals, the paper-literal reference the fast path is
	// differentially tested against. Steppers ignore it.
	Naive bool
	// NoImmediateCalibrations disables Algorithm 1's "previous interval
	// had flow < G/2" rule (ablation E7).
	NoImmediateCalibrations bool
	// LightestFirst makes Algorithm 2 extract the minimum-weight job, as
	// the paper's Algorithm 2 line 13 literally states (ablation E8); the
	// default is heaviest-first per Observation 2.1 and Lemma 3.5.
	LightestFirst bool
	// FlowTriggerOnly disables every calibration rule except "waiting
	// flow reached G", turning Algorithm 1/2 into the plain ski-rental
	// strategy the paper's Section 3.1 discussion starts from (baseline
	// for E9).
	FlowTriggerOnly bool
	// NoObservationReplay keeps Algorithm 3's (and Alg2Multi's) explicit
	// in-interval packing as final assignments. By default the calendar
	// they produce is replayed through the Observation 2.1 assigner,
	// which the paper notes "one would almost certainly" do in practice
	// (ablation E11 compares both).
	NoObservationReplay bool
	// Sink receives one trace.DecisionEvent per calibration the algorithm
	// opens, naming the rule that fired. nil (the default) disables
	// tracing entirely: the emitters skip all event construction behind a
	// nil check, and the differential tests prove schedules are identical
	// either way.
	Sink trace.Sink
}

// Option mutates Options.
type Option func(*Options)

// WithNaiveStepping forces per-time-step simulation.
func WithNaiveStepping() Option { return func(o *Options) { o.Naive = true } }

// WithoutImmediateCalibrations disables Algorithm 1's immediate rule.
func WithoutImmediateCalibrations() Option {
	return func(o *Options) { o.NoImmediateCalibrations = true }
}

// WithLightestFirst selects the paper-literal Algorithm 2 extraction order.
func WithLightestFirst() Option { return func(o *Options) { o.LightestFirst = true } }

// WithFlowTriggerOnly reduces the algorithm to the pure ski-rental rule:
// calibrate only once the waiting jobs' prospective flow reaches G.
func WithFlowTriggerOnly() Option { return func(o *Options) { o.FlowTriggerOnly = true } }

// WithoutObservationReplay keeps Algorithm 3's explicit packing.
func WithoutObservationReplay() Option {
	return func(o *Options) { o.NoObservationReplay = true }
}

// WithSink streams every calibration decision to s as it is made; see
// Options.Sink.
func WithSink(s trace.Sink) Option { return func(o *Options) { o.Sink = s } }

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// ruleName renders the decision-rule identifier for a fired trigger, e.g.
// "alg1.count-open". internal/trace.RuleDoc maps each identifier to the
// paper statement behind it; TestRuleNamesDocumented pins the two.
func ruleName(alg string, tr Trigger) string {
	switch tr {
	case TriggerFlow:
		return alg + ".flow-open"
	case TriggerCount:
		return alg + ".count-open"
	case TriggerWeight:
		return alg + ".weight-open"
	case TriggerQueueFull:
		return alg + ".queue-full-open"
	case TriggerImmediate:
		return alg + ".immediate-open"
	}
	return alg + ".none"
}

// decisionTracer carries the per-run bookkeeping the emitters share: the
// algorithm name, the rule identifier of each trigger (built once, so an
// event neither allocates its rule string nor holds a private copy of it),
// G for accrued cost, and a sequence counter. A nil *decisionTracer means
// tracing is off; emit call sites are guarded so the untraced path pays
// only that nil check.
type decisionTracer struct {
	sink  trace.Sink
	alg   string
	rules [TriggerImmediate + 1]string
	g     int64
	seq   int64
}

// newDecisionTracer returns nil when sink is nil, collapsing the traced
// and untraced paths into one guard at each emission site.
func newDecisionTracer(sink trace.Sink, alg string, g int64) *decisionTracer {
	if sink == nil {
		return nil
	}
	d := &decisionTracer{sink: sink, alg: alg, g: g}
	for tr := range d.rules {
		d.rules[tr] = ruleName(alg, Trigger(tr))
	}
	return d
}

// emit records one calibration decision with a snapshot of the waiting
// queue. calibrations counts calendar entries including the one being
// opened.
func (d *decisionTracer) emit(t int64, machine int, tr Trigger, q *queue.JobQueue, calibrations int) {
	d.seq++
	d.sink.Emit(trace.DecisionEvent{
		Seq:             d.seq,
		Time:            t,
		Machine:         machine,
		Alg:             d.alg,
		Rule:            d.rules[tr],
		QueueLen:        q.Len(),
		QueueWeight:     q.TotalWeight(),
		ProspectiveFlow: q.FlowIfScheduledFrom(t),
		Calibrations:    calibrations,
		AccruedCost:     core.MustMul(d.g, int64(calibrations)),
	})
}

func checkInput(in *core.Instance, g int64, wantP1, wantUnweighted bool) error {
	if g < 0 {
		return fmt.Errorf("online: calibration cost G = %d, want >= 0", g)
	}
	if wantP1 && in.P != 1 {
		return fmt.Errorf("online: single-machine algorithm on P = %d machines", in.P)
	}
	if wantUnweighted && !in.Unweighted() {
		return fmt.Errorf("online: unweighted algorithm on weighted instance")
	}
	return nil
}
