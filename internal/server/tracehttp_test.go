package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"calibsched/internal/store"
	"calibsched/internal/trace"
)

// tracedJSON issues a request carrying the given traceparent header and
// returns the status, the response traceparent, and the decoded body.
func tracedJSON(t *testing.T, method, url, traceparent string, body, out any) (int, string) {
	t.Helper()
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("traceparent")
}

// phaseSet collects the distinct phases of a span slice.
func phaseSet(spans []trace.Span) map[string]bool {
	set := map[string]bool{}
	for _, sp := range spans {
		set[sp.Phase] = true
	}
	return set
}

func TestTraceEndpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Store: st})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 8, G: 16, Alg: "alg2"})

	// A client-minted traceparent must be continued, not replaced.
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	parent := "00-" + wantTrace + "-00f067aa0ba902b7-01"

	var ar ArrivalsResponse
	status, respTP := tracedJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", parent,
		ArrivalsRequest{Jobs: []JobSpec{{Release: 0, Weight: 3}}}, &ar)
	if status != 200 || ar.Accepted != 1 {
		t.Fatalf("arrivals: status %d resp %+v", status, ar)
	}
	if sc, ok := trace.ParseTraceparent(respTP); !ok || sc.TraceID != wantTrace {
		t.Fatalf("response traceparent %q does not continue trace %s", respTP, wantTrace)
	}
	var sr StepResponse
	if status, _ = tracedJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", parent,
		StepRequest{Steps: 4}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}

	var list TraceListResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/traces", nil, &list); status != 200 {
		t.Fatalf("trace list: status %d", status)
	}
	var found *trace.TraceSummary
	for i := range list.Traces {
		if list.Traces[i].TraceID == wantTrace {
			found = &list.Traces[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s not in list %+v", wantTrace, list.Traces)
	}
	if found.RootPhase != trace.PhaseHTTP || found.RootDurationNS <= 0 {
		t.Fatalf("trace summary %+v: want http root with positive duration", *found)
	}
	if list.Stats.SpansAdded == 0 {
		t.Fatalf("stats %+v: no spans counted", list.Stats)
	}

	var got TraceGetResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/traces/"+wantTrace, nil, &got); status != 200 {
		t.Fatalf("trace get: status %d", status)
	}
	phases := phaseSet(got.Spans)
	for _, want := range []string{
		trace.PhaseHTTP, trace.PhaseQueueWait, trace.PhaseEngineStep,
		trace.PhaseWALAppend, trace.PhaseFsyncWait,
	} {
		if !phases[want] {
			t.Errorf("trace missing phase %q (have %v)", want, phases)
		}
	}
	// Both requests joined the same client trace, so there are two http
	// root spans; every span must carry the client's trace ID, and each
	// root's children must not exceed it.
	var roots int
	children := map[string]time.Duration{}
	for _, sp := range got.Spans {
		if sp.TraceID != wantTrace {
			t.Fatalf("span %+v: trace ID != %s", sp, wantTrace)
		}
		if sp.Phase == trace.PhaseHTTP {
			roots++
		} else {
			children[sp.Parent] += time.Duration(sp.Duration)
		}
	}
	if roots != 2 {
		t.Fatalf("got %d http spans, want 2 (arrivals + step)", roots)
	}
	for _, sp := range got.Spans {
		if sp.Phase != trace.PhaseHTTP {
			continue
		}
		if sum := children[sp.SpanID]; sum > time.Duration(sp.Duration) {
			t.Errorf("children of %s sum to %v > root %v", sp.SpanID, sum, time.Duration(sp.Duration))
		}
	}

	var errResp ErrorResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/traces/ffffffffffffffffffffffffffffffff", nil, &errResp); status != 404 {
		t.Fatalf("unknown trace: status %d, want 404", status)
	}
	if !strings.Contains(errResp.Error, "unknown trace") {
		t.Fatalf("unknown trace error = %q", errResp.Error)
	}
}

func TestTraceEndpointsDisabled(t *testing.T) {
	_, ts := testServer(t, Config{SpanStoreSize: -1})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 8, G: 16, Alg: "alg2"})

	// Requests still work and mint no spans — the untraced nil-Active path.
	var sr StepResponse
	status, respTP := tracedJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", StepRequest{Steps: 1}, &sr)
	if status != 200 {
		t.Fatalf("step: status %d", status)
	}
	if respTP != "" {
		t.Fatalf("disabled node answered traceparent %q", respTP)
	}
	var errResp ErrorResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/traces", nil, &errResp); status != 404 {
		t.Fatalf("trace list on disabled node: status %d, want 404", status)
	}
}

func TestTraceUntracedRequestsRecordNothing(t *testing.T) {
	srv, ts := testServer(t, Config{})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 8, G: 16, Alg: "alg2"})
	before := srv.spans.Stats().SpansAdded

	var sr StepResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: 1}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}
	// An untraced request still gets a server-minted http root span (so
	// /v1/traces is useful without client cooperation) — but fetching
	// traces must not add more.
	mid := srv.spans.Stats().SpansAdded
	if mid <= before {
		t.Fatalf("step minted no spans (added %d -> %d)", before, mid)
	}
	var list TraceListResponse
	for i := 0; i < 3; i++ {
		if status := doJSON(t, "GET", ts.URL+"/v1/traces", nil, &list); status != 200 {
			t.Fatalf("trace list: status %d", status)
		}
	}
	if after := srv.spans.Stats().SpansAdded; after != mid {
		t.Fatalf("reading traces added spans (%d -> %d)", mid, after)
	}
}

// TestFreshSessionFootprint pins the decision ring's on-demand growth: a
// fresh alg2 session holds no events yet, so it must not pay for the
// ring's full default capacity (1024 events, 96 KiB) up front.
func TestFreshSessionFootprint(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	const sessions = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range sessions {
		if _, err := m.Create(CreateSessionRequest{Alg: "alg2", T: 16, G: 64}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("heap per fresh alg2 session: %d B", perSession)
	if perSession > 8<<10 {
		t.Fatalf("a fresh alg2 session holds %d B of heap, want <= 8 KiB", perSession)
	}
}
