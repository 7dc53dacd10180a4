package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"calibsched/internal/core"
	"calibsched/internal/server/metrics"
	"calibsched/internal/solve"
	"calibsched/internal/trace"
)

// Offline-solve endpoints: POST /v1/solve submits an exact DP request to
// the bounded solve pool and answers 202 with a handle; GET /v1/solve/{id}
// polls it. Backpressure mirrors the session endpoints — a full pool
// queue is a 429 with Retry-After, never an unbounded queue. DESIGN.md
// §10 documents the pool, cache, and dedup architecture.

// solveEvent fans pool events into the expvar metrics plane.
func solveEvent(ev solve.Event) {
	switch ev {
	case solve.EvSubmitted:
		metrics.SolveSubmitted.Add(1)
	case solve.EvRejected:
		metrics.SolveRejected.Add(1)
	case solve.EvCacheHit:
		metrics.SolveCacheHits.Add(1)
	case solve.EvCacheMiss:
		metrics.SolveCacheMisses.Add(1)
	case solve.EvCacheEvicted:
		metrics.SolveCacheEvictions.Add(1)
	case solve.EvDedupShared:
		metrics.SolveDedupShared.Add(1)
	case solve.EvRun:
		metrics.SolveRuns.Add(1)
	case solve.EvCompleted:
		metrics.SolveCompleted.Add(1)
	case solve.EvFailed:
		metrics.SolveFailed.Add(1)
	case solve.EvPanicked:
		metrics.SolvePanics.Add(1)
	}
}

// syncSolveGauges refreshes the point-in-time pool gauges. Called from
// the solve handlers and the metrics scrape so readings are never staler
// than the last request.
func (s *Server) syncSolveGauges() {
	st := s.pool.Stats()
	metrics.SolveQueueDepth.Set(int64(st.QueueDepth))
	metrics.SolveRunning.Set(int64(st.Running))
	metrics.SolveCacheEntries.Set(int64(st.CacheLen))
}

func (s *Server) handleSolveSubmit(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	releases := make([]int64, len(req.Jobs))
	weights := make([]int64, len(req.Jobs))
	for i, j := range req.Jobs {
		releases[i] = j.Release
		weights[i] = j.Weight
	}
	in, err := core.NewInstance(1, req.T, releases, weights)
	if err != nil {
		writeError(w, &apiError{status: 400, msg: err.Error()})
		return
	}
	id, err := s.pool.Submit(solve.Request{
		Instance: in.Canonicalize(),
		Kind:     solve.Kind(req.Kind),
		K:        req.K,
		G:        req.G,
		Span:     trace.ActiveFrom(r.Context()).Context(),
	})
	if err != nil {
		writeError(w, solveErr(err))
		return
	}
	st, err := s.pool.Get(id)
	if err != nil {
		writeError(w, solveErr(err))
		return
	}
	s.syncSolveGauges()
	logAttrs(r, slog.String("solve", id), slog.String("kind", req.Kind))
	writeJSON(w, http.StatusAccepted, SolveSubmitResponse{
		ID:       st.ID,
		State:    string(st.State),
		CacheHit: st.CacheHit,
	})
}

func (s *Server) handleSolveGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.pool.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, solveErr(err))
		return
	}
	s.syncSolveGauges()
	code := http.StatusOK
	if st.Internal {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, solveStatusJSON(st))
}

// solveErr maps pool errors onto the API error contract.
func solveErr(err error) error {
	switch {
	case errors.Is(err, solve.ErrQueueFull):
		return &apiError{status: 429, retryAfter: true, msg: fmt.Sprintf(
			"solve queue full: %v; retry later", err)}
	case errors.Is(err, solve.ErrInvalid):
		return &apiError{status: 400, msg: err.Error()}
	case errors.Is(err, solve.ErrUnknownHandle):
		return &apiError{status: 404, msg: err.Error()}
	case errors.Is(err, solve.ErrClosed):
		return &apiError{status: 503, msg: "server is shutting down"}
	default:
		return err
	}
}

// solveStatusJSON renders a pool status for the wire.
func solveStatusJSON(st solve.Status) SolveStatusResponse {
	resp := SolveStatusResponse{
		ID:       st.ID,
		State:    string(st.State),
		Error:    st.Err,
		CacheHit: st.CacheHit,
		Shared:   st.Shared,
	}
	res := st.Result
	if res == nil {
		return resp
	}
	resp.Kind = string(res.Kind)
	switch res.Kind {
	case solve.KindFlow:
		flow := res.Flow
		resp.Flow = &flow
	case solve.KindSweep:
		resp.Flows = res.Flows
	case solve.KindTotalCost:
		total, bestK := res.Total, res.BestK
		resp.Total = &total
		resp.BestK = &bestK
	}
	if res.Schedule == nil || res.Instance == nil {
		return resp
	}
	for _, c := range res.Schedule.Calendar.Sorted() {
		resp.Calibrations = append(resp.Calibrations, CalibrationJSON{
			Machine: c.Machine,
			Start:   c.Start,
			Trigger: "offline",
		})
	}
	for _, a := range res.Schedule.Assignments {
		job := res.Instance.Jobs[a.Job]
		resp.Assignments = append(resp.Assignments, AssignmentJSON{
			Job:     a.Job,
			Release: job.Release,
			Weight:  job.Weight,
			Machine: a.Machine,
			Start:   a.Start,
		})
	}
	return resp
}
