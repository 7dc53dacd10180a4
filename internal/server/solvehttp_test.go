package server

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/server/metrics"
)

// pollSolve polls GET /v1/solve/{id} until the handle is terminal.
func pollSolve(t *testing.T, base, id string) SolveStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st SolveStatusResponse
		if status := doJSON(t, "GET", base+"/v1/solve/"+id, nil, &st); status != 200 {
			t.Fatalf("poll %s: status %d", id, status)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveEndToEnd drives every request kind through the HTTP API and
// checks the answers against the sequential offline solvers on the same
// canonical instance — the served-vs-batch differential for /v1/solve.
func TestSolveEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	jobs := []JobSpec{
		{Release: 0, Weight: 3}, {Release: 2, Weight: 1},
		{Release: 5, Weight: 4}, {Release: 9, Weight: 2},
	}
	in := core.MustInstance(1, 4,
		[]int64{0, 2, 5, 9}, []int64{3, 1, 4, 2}).Canonicalize()

	// kind=total
	var sub SolveSubmitResponse
	status := doJSON(t, "POST", ts.URL+"/v1/solve",
		SolveRequest{T: 4, Kind: "total", G: 6, Jobs: jobs}, &sub)
	if status != 202 || sub.ID == "" {
		t.Fatalf("submit total: status %d resp %+v", status, sub)
	}
	st := pollSolve(t, ts.URL, sub.ID)
	wantTotal, wantK, wantSched, err := offline.OptimalTotalCost(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Total == nil || *st.Total != wantTotal ||
		st.BestK == nil || *st.BestK != wantK {
		t.Fatalf("total solve: %+v, want total %d bestK %d", st, wantTotal, wantK)
	}
	if len(st.Calibrations) != len(wantSched.Calendar) ||
		len(st.Assignments) != len(wantSched.Assignments) {
		t.Fatalf("schedule shape: %d cals / %d assignments, want %d / %d",
			len(st.Calibrations), len(st.Assignments),
			len(wantSched.Calendar), len(wantSched.Assignments))
	}
	for i, a := range st.Assignments {
		want := wantSched.Assignments[i]
		if a.Job != want.Job || a.Start != want.Start || a.Machine != want.Machine {
			t.Fatalf("assignment %d: %+v != %+v", i, a, want)
		}
	}

	// kind=sweep
	status = doJSON(t, "POST", ts.URL+"/v1/solve",
		SolveRequest{T: 4, Kind: "sweep", K: 4, Jobs: jobs}, &sub)
	if status != 202 {
		t.Fatalf("submit sweep: status %d", status)
	}
	st = pollSolve(t, ts.URL, sub.ID)
	wantFlows, err := offline.BudgetSweep(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || !reflect.DeepEqual(st.Flows, wantFlows) {
		t.Fatalf("sweep solve: %+v, want flows %v", st, wantFlows)
	}

	// kind=flow
	status = doJSON(t, "POST", ts.URL+"/v1/solve",
		SolveRequest{T: 4, Kind: "flow", K: 2, Jobs: jobs}, &sub)
	if status != 202 {
		t.Fatalf("submit flow: status %d", status)
	}
	st = pollSolve(t, ts.URL, sub.ID)
	wantFlow, err := offline.OptimalFlow(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Flow == nil || *st.Flow != wantFlow.Flow {
		t.Fatalf("flow solve: %+v, want flow %d", st, wantFlow.Flow)
	}
}

// TestSolveCacheHitHTTP resubmits an identical request after completion
// and expects it to come back already done, flagged as a cache hit.
func TestSolveCacheHitHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := SolveRequest{T: 3, Kind: "total", G: 4, Jobs: []JobSpec{
		{Release: 0, Weight: 2}, {Release: 3, Weight: 1}, {Release: 7, Weight: 3},
	}}
	var first SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &first); status != 202 {
		t.Fatalf("first submit: status %d", status)
	}
	warm := pollSolve(t, ts.URL, first.ID)
	if warm.CacheHit {
		t.Fatalf("first solve already a cache hit: %+v", warm)
	}

	var second SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &second); status != 202 {
		t.Fatalf("second submit: status %d", status)
	}
	if !second.CacheHit || second.State != "done" {
		t.Fatalf("second submit not served from cache: %+v", second)
	}
	hit := pollSolve(t, ts.URL, second.ID)
	if !hit.CacheHit || hit.Total == nil || *hit.Total != *warm.Total {
		t.Fatalf("cached status: %+v, want total %d", hit, *warm.Total)
	}
	// Job order must not matter: the canonical instance hash is over the
	// sorted normal form.
	perm := SolveRequest{T: 3, Kind: "total", G: 4, Jobs: []JobSpec{
		{Release: 7, Weight: 3}, {Release: 0, Weight: 2}, {Release: 3, Weight: 1},
	}}
	var third SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", perm, &third); status != 202 {
		t.Fatalf("permuted submit: status %d", status)
	}
	if !third.CacheHit {
		t.Fatalf("permuted job order missed the cache: %+v", third)
	}
}

// TestSolveBackpressure fills the depth-1 solve queue behind a held-open
// worker and expects the spillover submit to get 429 + Retry-After.
func TestSolveBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	_, ts := testServer(t, Config{
		SolveWorkers:    1,
		SolveQueueDepth: 1,
		solveTestHook: func(string) {
			once.Do(func() { close(started) })
			<-gate
		},
	})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	reqG := func(g int64) SolveRequest {
		return SolveRequest{T: 3, Kind: "total", G: g, Jobs: []JobSpec{
			{Release: 0, Weight: 1}, {Release: 4, Weight: 2},
		}}
	}
	var sub SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", reqG(1), &sub); status != 202 {
		t.Fatalf("busy submit: status %d", status)
	}
	<-started
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", reqG(2), &sub); status != 202 {
		t.Fatalf("queued submit: status %d", status)
	}
	var errResp ErrorResponse
	status, hdr := doJSONHeaders(t, "POST", ts.URL+"/v1/solve", reqG(3), &errResp)
	if status != 429 {
		t.Fatalf("overflow submit: status %d, body %+v", status, errResp)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	close(gate)
}

func TestSolveValidationAndUnknownHandle(t *testing.T) {
	_, ts := testServer(t, Config{})
	var errResp ErrorResponse
	cases := []SolveRequest{
		{T: 3, Kind: "nope", Jobs: []JobSpec{{Release: 0, Weight: 1}}},
		{T: 0, Kind: "flow", K: 1, Jobs: []JobSpec{{Release: 0, Weight: 1}}},
		{T: 3, Kind: "flow", K: -1, Jobs: []JobSpec{{Release: 0, Weight: 1}}},
		{T: 3, Kind: "total", G: -2, Jobs: []JobSpec{{Release: 0, Weight: 1}}},
		{T: 3, Kind: "flow", K: 1, Jobs: []JobSpec{{Release: -1, Weight: 1}}},
		{T: 3, Kind: "flow", K: 1, Jobs: []JobSpec{{Release: 0, Weight: 0}}},
	}
	for i, req := range cases {
		if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &errResp); status != 400 {
			t.Errorf("case %d: status %d (%+v), want 400", i, status, errResp)
		}
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/solve/solve-424242", nil, &errResp); status != 404 {
		t.Errorf("unknown handle: status %d, want 404", status)
	}
}

// TestSolveMetricsExposed asserts the pool counters and gauges surface
// in the Prometheus exposition after traffic. The expvar registry is
// process-global, so only presence and monotonicity are checked, not
// absolute values.
func TestSolveMetricsExposed(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := SolveRequest{T: 3, Kind: "sweep", K: 3, Jobs: []JobSpec{
		{Release: 0, Weight: 1}, {Release: 2, Weight: 2}, {Release: 8, Weight: 1},
	}}
	var sub SolveSubmitResponse
	for i := 0; i < 2; i++ { // second submit is a cache hit
		if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &sub); status != 202 {
			t.Fatalf("submit %d: status %d", i, status)
		}
		pollSolve(t, ts.URL, sub.ID)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE calibserved_solve_submitted counter",
		"# TYPE calibserved_solve_cache_hits counter",
		"# TYPE calibserved_solve_cache_misses counter",
		"# TYPE calibserved_solve_dedup_shared counter",
		"# TYPE calibserved_solve_runs counter",
		"# TYPE calibserved_solve_panics counter",
		"# TYPE calibserved_solve_queue_depth gauge",
		"# TYPE calibserved_solve_running gauge",
		"# TYPE calibserved_solve_cache_entries gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSolveSweepBudgetBounded posts a sweep whose budget would size a
// 2^62-row answer. The pool rejects it at submit with a 400, before any
// worker allocates; a sweep up to n rows is still served.
func TestSolveSweepBudgetBounded(t *testing.T) {
	_, ts := testServer(t, Config{})
	jobs := []JobSpec{{Release: 0, Weight: 1}, {Release: 2, Weight: 2}, {Release: 8, Weight: 1}}
	var errResp ErrorResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{T: 3, Kind: "sweep", K: 1 << 62, Jobs: jobs}, &errResp); status != 400 {
		t.Fatalf("sweep with K = 2^62: status %d (%+v), want 400", status, errResp)
	}
	var sub SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{T: 3, Kind: "sweep", K: len(jobs), Jobs: jobs}, &sub); status != 202 {
		t.Fatalf("sweep with K = n: status %d, want 202", status)
	}
	if st := pollSolve(t, ts.URL, sub.ID); st.State != "done" || len(st.Flows) != len(jobs)+1 {
		t.Fatalf("sweep with K = n: %+v", st)
	}
}

// TestSolvePanicFailsOnlyItsRequest panics inside the first DP run. Its
// handle reads back as 500 with state "failed", the panic counter moves,
// and the server goes on serving: an identical request runs afresh
// instead of attaching to the dead flight or reading a cached failure.
func TestSolvePanicFailsOnlyItsRequest(t *testing.T) {
	var runs atomic.Int32
	_, ts := testServer(t, Config{
		SolveWorkers: 1,
		solveTestHook: func(string) {
			if runs.Add(1) == 1 {
				panic("injected solve failure")
			}
		},
	})
	before := metrics.SolvePanics.Value()
	req := SolveRequest{T: 3, Kind: "total", G: 4, Jobs: []JobSpec{
		{Release: 0, Weight: 1}, {Release: 2, Weight: 2}, {Release: 8, Weight: 1},
	}}
	var sub SolveSubmitResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &sub); status != 202 {
		t.Fatalf("submit: status %d", status)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st SolveStatusResponse
		status := doJSON(t, "GET", ts.URL+"/v1/solve/"+sub.ID, nil, &st)
		if st.State == "failed" {
			if status != 500 || !strings.Contains(st.Error, "injected solve failure") {
				t.Fatalf("panicked solve: status %d %+v, want 500 naming the panic", status, st)
			}
			break
		}
		if status != 200 || time.Now().After(deadline) {
			t.Fatalf("panicked solve: status %d state %q", status, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := metrics.SolvePanics.Value() - before; got != 1 {
		t.Fatalf("calibserved.solve.panics moved by %d, want 1", got)
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/solve", req, &sub); status != 202 || sub.CacheHit {
		t.Fatalf("identical resubmit: status %d %+v, want a fresh 202", status, sub)
	}
	if st := pollSolve(t, ts.URL, sub.ID); st.State != "done" || st.Shared || st.Total == nil {
		t.Fatalf("identical resubmit: %+v, want a fresh result", st)
	}
}
