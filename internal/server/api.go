package server

import "calibsched/internal/trace"

// JSON request/response schema of the calibserved v1 API. All quantities
// are int64 on the wire, matching the exact integer model of
// internal/core; DESIGN.md §7 documents the endpoint contract.

// CreateSessionRequest creates a scheduling session: POST /v1/sessions.
type CreateSessionRequest struct {
	// T is the calibration length (steps per calibrated interval), >= 1.
	T int64 `json:"t"`
	// G is the per-calibration cost, >= 0.
	G int64 `json:"g"`
	// Alg selects the engine backend; see online.EngineNames.
	Alg string `json:"alg"`
	// ID optionally pins the session id instead of taking a
	// server-numbered one. The cluster gateway (internal/cluster) relies
	// on this: it must choose the id before it can consistent-hash the
	// session onto a node. Letters, digits, '.', '_', and '-' only; an
	// id already in use is a 409.
	ID string `json:"id,omitempty"`
}

// SessionInfo describes a session's identity and live state.
type SessionInfo struct {
	ID  string `json:"id"`
	Alg string `json:"alg"`
	T   int64  `json:"t"`
	G   int64  `json:"g"`
	// Now is the next time step the session will simulate.
	Now int64 `json:"now"`
	// Pending counts jobs inside the engine's queue (released, waiting).
	Pending int `json:"pending"`
	// Buffered counts accepted future arrivals not yet fed to the engine.
	Buffered int `json:"buffered"`
	// Jobs counts every job accepted so far.
	Jobs int `json:"jobs"`
}

// JobSpec is one job in an arrivals request. Release must be >= the
// session's current step; Weight must be >= 1 (exactly 1 for unweighted
// engines).
type JobSpec struct {
	Release int64 `json:"release"`
	Weight  int64 `json:"weight"`
}

// ArrivalsRequest feeds jobs: POST /v1/sessions/{id}/arrivals. The batch
// is atomic: either every job is buffered or none is.
type ArrivalsRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// ArrivalsResponse acknowledges buffered arrivals.
type ArrivalsResponse struct {
	// Accepted is the number of jobs buffered by this request.
	Accepted int `json:"accepted"`
	// IDs are the server-assigned dense job IDs, in request order.
	IDs []int `json:"ids"`
	// Buffered and Capacity describe the arrival buffer after the
	// request; Capacity-Buffered is the headroom before backpressure.
	Buffered int `json:"buffered"`
	Capacity int `json:"capacity"`
}

// StepRequest advances the clock: POST /v1/sessions/{id}/step.
type StepRequest struct {
	// Steps is the number of time steps to simulate, default 1.
	Steps int64 `json:"steps"`
}

// StepEventJSON reports one simulated step. Quiet steps (no calibration,
// nothing ran) are elided from StepResponse.Events; the clock still
// advances.
type StepEventJSON struct {
	Time       int64  `json:"time"`
	Calibrated bool   `json:"calibrated,omitempty"`
	Trigger    string `json:"trigger,omitempty"`
	// Ran is the ID of the job scheduled at this step, or -1.
	Ran int `json:"ran"`
}

// StepResponse reports the steps just simulated and the resulting state.
type StepResponse struct {
	Events []StepEventJSON `json:"events"`
	// Stepped is the number of steps simulated (== request's Steps).
	Stepped int64 `json:"stepped"`
	Now     int64 `json:"now"`
	Pending int   `json:"pending"`
	// Buffered counts future arrivals still waiting to mature.
	Buffered int `json:"buffered"`
	// Done reports that every accepted job has been scheduled and no
	// arrivals are buffered.
	Done bool `json:"done"`
}

// CalibrationJSON is one calendar entry of a schedule snapshot.
type CalibrationJSON struct {
	Machine int    `json:"machine"`
	Start   int64  `json:"start"`
	Trigger string `json:"trigger"`
}

// AssignmentJSON is one job's placement in a schedule snapshot. Start is
// -1 while the job is still waiting.
type AssignmentJSON struct {
	Job     int   `json:"job"`
	Release int64 `json:"release"`
	Weight  int64 `json:"weight"`
	Machine int   `json:"machine"`
	Start   int64 `json:"start"`
}

// ScheduleResponse is the snapshot from GET /v1/sessions/{id}/schedule:
// the schedule built so far plus exact cost accounting over the assigned
// jobs (G * calibrations + weighted flow, computed with the
// checked-arithmetic helpers of internal/core).
type ScheduleResponse struct {
	Session      SessionInfo       `json:"session"`
	Calibrations []CalibrationJSON `json:"calibrations"`
	Assignments  []AssignmentJSON  `json:"assignments"`
	// Assigned counts jobs with a start time.
	Assigned int `json:"assigned"`
	// Flow is the total weighted flow of the assigned jobs.
	Flow int64 `json:"flow"`
	// TotalCost is G*len(Calibrations) + Flow.
	TotalCost int64 `json:"total_cost"`
	Done      bool  `json:"done"`
}

// TraceResponse is the body of GET /v1/sessions/{id}/trace: the most
// recent calibration decision events from the session's bounded ring
// buffer, oldest first. Emitted counts every event the engine ever
// produced; Dropped counts those evicted once the ring filled, so
// Emitted - Dropped == len(Events).
type TraceResponse struct {
	Session  string                `json:"session"`
	Capacity int                   `json:"capacity"`
	Emitted  int64                 `json:"emitted"`
	Dropped  int64                 `json:"dropped"`
	Events   []trace.DecisionEvent `json:"events"`
}

// TraceListResponse is the body of GET /v1/traces: the span store's
// index (oldest trace first) plus its retention counters.
type TraceListResponse struct {
	Traces []trace.TraceSummary `json:"traces"`
	Stats  trace.StoreStats     `json:"stats"`
}

// TraceGetResponse is the body of GET /v1/traces/{traceID}: every span
// this node recorded for the trace, in recording order. The gateway
// serves the same shape with the fleet's spans stitched together.
type TraceGetResponse struct {
	TraceID string       `json:"trace_id"`
	Spans   []trace.Span `json:"spans"`
}

// SolveRequest submits an exact offline solve: POST /v1/solve. The job
// set is canonicalized to the paper's normal form (sorted, distinct
// release times) before solving, so equivalent submissions share one
// cache entry.
type SolveRequest struct {
	// T is the calibration length, >= 1.
	T int64 `json:"t"`
	// Kind selects the solver: "flow" (optimal flow under budget K),
	// "sweep" (optimal flow for every budget 0..K), or "total"
	// (minimum flow + G per calibration).
	Kind string `json:"kind"`
	// K is the calibration budget ("flow") or largest sweep budget
	// ("sweep").
	K int `json:"k,omitempty"`
	// G is the per-calibration cost ("total").
	G    int64     `json:"g,omitempty"`
	Jobs []JobSpec `json:"jobs"`
}

// SolveSubmitResponse acknowledges an accepted solve: 202 with the
// handle to poll at GET /v1/solve/{id}. Cache hits come back already
// done.
type SolveSubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

// SolveStatusResponse is the body of GET /v1/solve/{id}. Result fields
// are populated only in state "done", and only those matching the
// request kind: Flow for "flow", Flows for "sweep", Total/BestK for
// "total"; Calibrations and Assignments carry the optimal schedule for
// "flow" and "total".
type SolveStatusResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Kind     string `json:"kind,omitempty"`
	Error    string `json:"error,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	// Shared marks handles that attached to an identical in-flight solve.
	Shared       bool              `json:"shared"`
	Flow         *int64            `json:"flow,omitempty"`
	Flows        []int64           `json:"flows,omitempty"`
	Total        *int64            `json:"total,omitempty"`
	BestK        *int              `json:"best_k,omitempty"`
	Calibrations []CalibrationJSON `json:"calibrations,omitempty"`
	Assignments  []AssignmentJSON  `json:"assignments,omitempty"`
}

// SessionListResponse is the GET /v1/sessions body: every live session,
// sorted by ID. The cluster gateway uses it to enumerate what must move
// during a rebalance.
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// ExportedSession is a session's complete durable state in transit
// between nodes: the body of a successful POST /v1/sessions/{id}/export
// and of the matching POST /v1/sessions/import. Snapshot holds the bytes
// of the session's snap file (store.EncodeSnapshot: a CRC-framed v2
// record, base64 in JSON), construction parameters included; the
// importing node reads it with the same strict decoder crash recovery
// uses, so a migrated session is byte-identical to one that never moved.
type ExportedSession struct {
	ID       string `json:"id"`
	Snapshot []byte `json:"snapshot"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

// ReadyResponse is the GET /readyz body. Status is "ok" when the node
// accepts new sessions and imports, "draining" once shutdown has begun,
// and "booting" while the daemon is still replaying WALs (served by the
// daemon's boot handler before the real server exists). Health checkers
// route on the status code — 200 vs 503 — not the body.
type ReadyResponse struct {
	Status string `json:"status"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
