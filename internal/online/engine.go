package online

import (
	"fmt"
	"strings"

	"calibsched/internal/core"
)

// Engine is the incremental scheduling interface a serving layer drives:
// an online algorithm packaged as a state machine that consumes arrivals
// one time step at a time and can report its schedule so far at any
// moment. *Stepper implements it for Algorithms 1 and 2; a backend plugs
// in by satisfying the same contract and registering an EngineSpec.
//
// The contract matches Stepper exactly: Step must be called for
// consecutive time steps starting at 0, each call fed only the jobs
// released at the current step. Job IDs are small non-negative integers,
// as a session's dense job table assigns them: an engine may keep
// per-job state in a slice indexed by ID. Every engine snapshots its
// state and fast-forwards idle stretches: the serving layer persists,
// recovers and migrates sessions through MarshalState and the spec's
// Restore, and steps quiet ticks through SkipIdle.
type Engine interface {
	Snapshotter
	IdleSkipper
	// Step simulates the current time step with the given arrivals and
	// advances the clock.
	Step(arrivals []core.Job) StepEvent
	// Now returns the next step Step will simulate.
	Now() int64
	// Pending returns the number of jobs waiting in the queue.
	Pending() int
	// CalibratedNow reports whether the machine is calibrated for the
	// next step.
	CalibratedNow() bool
	// Schedule assembles the schedule built so far for an n-job
	// instance; unscheduled jobs keep Start -1.
	Schedule(n int) *core.Schedule
	// Triggers returns the trigger behind each calendar entry so far.
	Triggers() []Trigger
	// Jobs reports the jobs the engine holds: those waiting in its queue,
	// in no particular order, and the start of each one it has started,
	// indexed by job ID: starts[id] is -1 for a job not started, and IDs
	// at or past len(starts) have not started either. Both are the
	// engine's own: read-only, and valid until the next Step or SkipIdle.
	Jobs() (queued []core.Job, starts []int64)
}

var _ Engine = (*Stepper)(nil)

// IdleSkipper is the fast-forward part of Engine: with an
// empty queue, no trigger can fire and no job can run, so every step is
// pure clock advancement — SkipIdle jumps the clock in O(1) where
// repeated Step(nil) calls would cost one call per tick (Stepper's
// SkipIdle is its Advance restricted to an empty queue). The contract is
// that SkipIdle(to) with Pending() == 0 leaves the engine in exactly the
// state that Step(nil) repeated (to - Now()) times would. Callers must
// check Pending() first; implementations panic otherwise.
type IdleSkipper interface {
	// SkipIdle advances the clock to step `to` without simulating the
	// intervening (eventless) steps. No-op when to <= Now(); panics if
	// jobs are pending.
	SkipIdle(to int64)
}

// EngineSpec describes one registered engine backend.
type EngineSpec struct {
	// Name is the identifier used by the serving API ("alg1", "alg2").
	Name string
	// Doc is a one-line description for listings and error messages.
	Doc string
	// UnitWeightsOnly marks engines that accept only weight-1 jobs
	// (Algorithm 1's unweighted analysis); the serving layer enforces
	// this at arrival time since the stepper itself cannot reject a
	// weight retroactively.
	UnitWeightsOnly bool
	// New constructs a fresh engine for calibration length T and cost G.
	New func(t, g int64, opts ...Option) Engine
	// Restore reconstructs an engine from a state snapshot produced by
	// its MarshalState (crash recovery and migration; see snapshot.go).
	// The state may hold only jobs with IDs in [0, jobs): an engine keeps
	// per-job state indexed by ID, so a restore from untrusted bytes is
	// bounded by a job count its caller holds (a session passes the
	// length of its job table), never by an ID it read.
	Restore func(t, g int64, jobs int, state []byte, opts ...Option) (Engine, error)
}

// engineSpecs is the backend registry, in listing order.
var engineSpecs = []EngineSpec{
	{
		Name:            "alg1",
		Doc:             "Algorithm 1: unweighted single machine, 3-competitive",
		UnitWeightsOnly: true,
		New: func(t, g int64, opts ...Option) Engine {
			return NewAlg1Stepper(t, g, opts...)
		},
		Restore: restoreStepper("alg1", NewAlg1Stepper),
	},
	{
		Name: "alg2",
		Doc:  "Algorithm 2: weighted single machine, 12-competitive",
		New: func(t, g int64, opts ...Option) Engine {
			return NewAlg2Stepper(t, g, opts...)
		},
		Restore: restoreStepper("alg2", NewAlg2Stepper),
	},
}

// Engines lists the registered engine backends.
func Engines() []EngineSpec {
	return append([]EngineSpec(nil), engineSpecs...)
}

// EngineNames lists the registered backend names, for error messages and
// flag docs.
func EngineNames() []string {
	names := make([]string, len(engineSpecs))
	for i, s := range engineSpecs {
		names[i] = s.Name
	}
	return names
}

// LookupEngine finds a backend by name.
func LookupEngine(name string) (EngineSpec, bool) {
	for _, s := range engineSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return EngineSpec{}, false
}

// NewEngine validates the parameters and constructs the named backend.
func NewEngine(name string, t, g int64, opts ...Option) (Engine, error) {
	spec, ok := LookupEngine(name)
	if !ok {
		return nil, fmt.Errorf("online: unknown engine %q (have %s)", name, strings.Join(EngineNames(), ", "))
	}
	if t < 1 {
		return nil, fmt.Errorf("online: calibration length T = %d, want >= 1", t)
	}
	if g < 0 {
		return nil, fmt.Errorf("online: calibration cost G = %d, want >= 0", g)
	}
	return spec.New(t, g, opts...), nil
}
