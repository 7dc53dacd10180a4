// Package simul provides discrete-time plumbing for the online
// calibration algorithms: an arrival stream grouping jobs by release time,
// and small integer-time utilities (ceiling division on int64).
//
// Algorithm 3, Alg2Multi and the baselines consume its arrival stream;
// Algorithm 3 and Alg2Multi come in two operationally identical flavors —
// a naive per-time-step simulation and an event-skipping fast-forward
// loop. Algorithms 1 and 2 run on online.Stepper instead, whose Advance
// skips events the same way. Event skipping matters because the
// calibration cost G sets the natural delay scale: a lone job may wait
// Theta(G) steps before the flow trigger fires, so a naive loop is
// Omega(G) while the event loop is O((n + #calibrations) log n).
package simul

import "calibsched/internal/core"

// Arrivals is a cursor over an instance's jobs grouped by release time in
// increasing order. Jobs of an Instance are already sorted by release, so
// construction is O(1).
type Arrivals struct {
	jobs []core.Job
	i    int
}

// NewArrivals returns an arrival stream over the instance's jobs.
func NewArrivals(in *core.Instance) *Arrivals {
	return &Arrivals{jobs: in.Jobs}
}

// Remaining returns the number of jobs not yet consumed.
func (a *Arrivals) Remaining() int { return len(a.jobs) - a.i }

// NextTime returns the release time of the next unconsumed job, and whether
// one exists.
func (a *Arrivals) NextTime() (int64, bool) {
	if a.i >= len(a.jobs) {
		return 0, false
	}
	return a.jobs[a.i].Release, true
}

// PopAt consumes and returns all jobs released exactly at time t. Jobs with
// release < t must already have been consumed (the stream moves forward
// only); PopAt panics otherwise, as that indicates a simulation bug.
func (a *Arrivals) PopAt(t int64) []core.Job {
	if a.i < len(a.jobs) && a.jobs[a.i].Release < t {
		panic("simul: arrival stream moved past unconsumed jobs")
	}
	start := a.i
	for a.i < len(a.jobs) && a.jobs[a.i].Release == t {
		a.i++
	}
	return a.jobs[start:a.i]
}

// CeilDiv returns ceil(a/b) for b > 0, correct for negative a.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("simul: CeilDiv needs positive divisor")
	}
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}
