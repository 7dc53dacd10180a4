package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"calibsched/internal/server/metrics"
	"calibsched/internal/trace"
)

// TestTraceEndpoint checks that GET /v1/sessions/{id}/trace reports one
// decision event per calibration, aligned with the schedule snapshot and
// carrying the documented rule identifier.
func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 4, G: 8, Alg: "alg2"})

	var ar ArrivalsResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{
		Jobs: []JobSpec{{Release: 0, Weight: 3}, {Release: 1, Weight: 3}, {Release: 9, Weight: 5}},
	}, &ar); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	var sr StepResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: 40}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}
	if !sr.Done {
		t.Fatalf("session not done after 40 steps: %+v", sr)
	}

	var sched ScheduleResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/schedule", nil, &sched); status != 200 {
		t.Fatalf("schedule: status %d", status)
	}
	if len(sched.Calibrations) == 0 {
		t.Fatal("workload produced no calibrations; trace has nothing to check")
	}

	var tr TraceResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/trace", nil, &tr); status != 200 {
		t.Fatalf("trace: status %d", status)
	}
	if tr.Session != id {
		t.Errorf("trace session = %q, want %q", tr.Session, id)
	}
	if tr.Dropped != 0 || tr.Emitted != int64(len(tr.Events)) {
		t.Errorf("emitted %d dropped %d for %d events; ring should not have wrapped", tr.Emitted, tr.Dropped, len(tr.Events))
	}
	if len(tr.Events) != len(sched.Calibrations) {
		t.Fatalf("%d trace events for %d calibrations", len(tr.Events), len(sched.Calibrations))
	}
	for i, ev := range tr.Events {
		c := sched.Calibrations[i]
		if ev.Time != c.Start || ev.Machine != c.Machine {
			t.Errorf("event %d at (m%d, t%d), calendar says (m%d, t%d)", i, ev.Machine, ev.Time, c.Machine, c.Start)
		}
		if want := fmt.Sprintf("alg2.%s-open", c.Trigger); ev.Rule != want {
			t.Errorf("event %d rule = %q, want %q", i, ev.Rule, want)
		}
		if trace.RuleDoc(ev.Rule) == "" {
			t.Errorf("event %d rule %q has no documentation", i, ev.Rule)
		}
		if ev.Seq != int64(i+1) || ev.Calibrations != i+1 {
			t.Errorf("event %d: seq %d, calibrations %d", i, ev.Seq, ev.Calibrations)
		}
	}

	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/nope/trace", nil, nil); status != 404 {
		t.Errorf("trace of unknown session: status %d, want 404", status)
	}
}

// TestTraceRingDropsOldest drives more calibrations than the configured
// ring capacity and checks the window semantics: newest events kept, drop
// count reported, sequence numbers contiguous.
func TestTraceRingDropsOldest(t *testing.T) {
	_, ts := testServer(t, Config{TraceRing: 4})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 1, G: 1, Alg: "alg2"})

	jobs := make([]JobSpec, 12)
	for i := range jobs {
		jobs[i] = JobSpec{Release: int64(2 * i), Weight: 1}
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{Jobs: jobs}, nil); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	var sr StepResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: 40}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}

	var tr TraceResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/trace", nil, &tr); status != 200 {
		t.Fatalf("trace: status %d", status)
	}
	if tr.Capacity != 4 || len(tr.Events) != 4 {
		t.Fatalf("capacity %d, %d events; want 4 and 4", tr.Capacity, len(tr.Events))
	}
	if tr.Dropped == 0 || tr.Emitted != tr.Dropped+4 {
		t.Fatalf("emitted %d dropped %d; want a wrapped ring with emitted = dropped + 4", tr.Emitted, tr.Dropped)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Seq != tr.Events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq after drop: %d then %d", tr.Events[i-1].Seq, tr.Events[i].Seq)
		}
	}
	if tr.Events[len(tr.Events)-1].Seq != tr.Emitted {
		t.Fatalf("newest seq %d != emitted %d", tr.Events[len(tr.Events)-1].Seq, tr.Emitted)
	}
}

// TestTraceConcurrentWithStepping reads the trace ring over HTTP while
// the session worker is writing to it — the -race gate for the
// worker/handler sharing of trace.Ring.
func TestTraceConcurrentWithStepping(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 2, G: 2, Alg: "alg1"})

	jobs := make([]JobSpec, 200)
	for i := range jobs {
		jobs[i] = JobSpec{Release: int64(3 * i), Weight: 1}
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{Jobs: jobs}, nil); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	stepping := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(stepping)
		for i := 0; i < 40; i++ {
			// Plain HTTP here: test helpers may not Fatal off the test
			// goroutine.
			resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/step", "application/json",
				strings.NewReader(`{"steps":20}`))
			if err != nil {
				t.Errorf("step batch %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("step batch %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	reads := 0
	for done := false; !done; {
		select {
		case <-stepping:
			done = true
		default:
		}
		var tr TraceResponse
		if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id+"/trace", nil, &tr); status != 200 {
			t.Fatalf("trace read %d: status %d", reads, status)
		}
		if int64(len(tr.Events)) != tr.Emitted-tr.Dropped {
			t.Fatalf("inconsistent snapshot: %d events, emitted %d, dropped %d", len(tr.Events), tr.Emitted, tr.Dropped)
		}
		for i := 1; i < len(tr.Events); i++ {
			if tr.Events[i].Seq != tr.Events[i-1].Seq+1 {
				t.Fatalf("torn snapshot: seq %d then %d", tr.Events[i-1].Seq, tr.Events[i].Seq)
			}
		}
		reads++
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("trace reader never overlapped the stepping writer")
	}
}

// syncBuf is a goroutine-safe log sink: the HTTP server's handler
// goroutines write access-log lines while the test goroutine reads.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLogShape parses one JSON access-log line and asserts the
// structured keys the log contract promises (method, path, status,
// latency, plus the handler-attached session id and step count).
func TestAccessLogShape(t *testing.T) {
	buf := &syncBuf{}
	_, ts := testServer(t, Config{Logger: slog.New(slog.NewJSONHandler(buf, nil))})

	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 2, G: 4, Alg: "alg1"})
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{
		Jobs: []JobSpec{{Release: 0, Weight: 1}},
	}, nil); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: 3}, nil); status != 200 {
		t.Fatalf("step: status %d", status)
	}

	// ServeHTTP logs the record as the handler returns, which for a small
	// response like this one is before net/http sends it; a large
	// response can reach the client first, so wait for the step line.
	var line string
	deadline := time.Now().Add(2 * time.Second)
	for line == "" {
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, "/step") {
				line = l
				break
			}
		}
		if line == "" {
			if time.Now().After(deadline) {
				t.Fatalf("no /step access-log line appeared; log so far:\n%s", buf.String())
			}
			time.Sleep(time.Millisecond)
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	want := map[string]any{
		"msg":     "request",
		"method":  "POST",
		"path":    "/v1/sessions/" + id + "/step",
		"status":  float64(200),
		"session": id,
		"steps":   float64(3),
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("log[%q] = %v, want %v (line: %s)", k, rec[k], v, line)
		}
	}
	for _, k := range []string{"time", "level", "latency"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("log line missing %q: %s", k, line)
		}
	}
}

// TestQueueDepthRestoredAfterBrokenSessionEviction is the regression test
// for the stale-gauge bug: a session whose engine panics mid-step (int64
// overflow in the trigger arithmetic) used to leave its already-fed jobs
// on the queue-depth gauge forever, because the post-step decrement was
// skipped and teardown only subtracted the surviving buffer length. The
// gauge must return to baseline the moment the janitor evicts the broken
// session.
func TestQueueDepthRestoredAfterBrokenSessionEviction(t *testing.T) {
	srv, ts := testServer(t, Config{IdleTTL: 50 * time.Millisecond, JanitorInterval: 10 * time.Millisecond})
	baseline := metrics.QueueDepth.Value()

	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 4, G: 1 << 40, Alg: "alg2"})
	// Job 0 matures immediately and its weight overflows the weight
	// trigger's T * totalWeight product; jobs 1 and 2 stay buffered.
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{
		Jobs: []JobSpec{
			{Release: 0, Weight: math.MaxInt64 / 2},
			{Release: 50, Weight: 1},
			{Release: 60, Weight: 1},
		},
	}, nil); status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	var errResp ErrorResponse
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/step", StepRequest{Steps: 1}, &errResp); status != 500 {
		t.Fatalf("overflow step: status %d (%s), want 500", status, errResp.Error)
	}
	// The fed job must already be off the gauge even though the engine
	// panicked before completing the step; only the two buffered jobs
	// remain.
	if got := metrics.QueueDepth.Value(); got != baseline+2 {
		t.Fatalf("queue depth after broken step = %d, want baseline+2 = %d", got, baseline+2)
	}

	// The janitor removes the session from the table before retire
	// finishes the gauge release, so poll the gauge itself.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Manager().Len() > 0 || metrics.QueueDepth.Value() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("gauge never returned to baseline: sessions %d, queue depth %d, want %d",
				srv.Manager().Len(), metrics.QueueDepth.Value(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); status != http.StatusNotFound {
		t.Fatalf("evicted session still resolvable: status %d", status)
	}
}

// TestMetricsEndpoint scrapes GET /metrics and checks the content type
// and that the calibserved families render.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"calibserved_sessions_active",
		"calibserved_queue_depth",
		"# TYPE calibserved_step_latency_seconds histogram",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
