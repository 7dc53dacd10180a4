package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calibsched/internal/cluster"
	"calibsched/internal/server"
)

// loadServer boots an in-process calibserved for the generator to hit.
func loadServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestRunLoadEndToEnd(t *testing.T) {
	ts := loadServer(t, server.Config{})
	for _, alg := range []string{"alg1", "alg2"} {
		cfg := config{
			addr: ts.URL, sessions: 4, steps: 60, stepBatch: 8, jobs: 12,
			alg: alg, t: 8, g: 24, seed: 7, verify: true, timeout: 0,
		}
		rep, err := runLoad(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(rep.errs) > 0 {
			t.Fatalf("%s: request errors: %v", alg, rep.errs)
		}
		if rep.verified != cfg.sessions || rep.mismatches != 0 {
			t.Fatalf("%s: verified %d/%d, %d mismatches", alg, rep.verified, cfg.sessions, rep.mismatches)
		}
		if rep.requests == 0 || len(rep.latencies) == 0 {
			t.Fatalf("%s: no traffic recorded: %+v", alg, rep)
		}
	}
}

// TestRunLoadHonorsBackpressure drives a tiny arrival buffer: the
// generator must retry on 429 and still finish with zero errors.
func TestRunLoadHonorsBackpressure(t *testing.T) {
	ts := loadServer(t, server.Config{MaxBuffer: 2})
	cfg := config{
		addr: ts.URL, sessions: 2, steps: 40, stepBatch: 2, jobs: 30,
		alg: "alg2", t: 4, g: 8, seed: 3, verify: true,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With 30 jobs squeezed over 40 steps into a 2-slot buffer some
	// batches must have been refused at least once.
	if len(rep.errs) > 0 {
		t.Fatalf("request errors despite retries: %v", rep.errs)
	}
	if rep.verified != cfg.sessions {
		t.Fatalf("verified %d/%d", rep.verified, cfg.sessions)
	}
}

// TestRunLoadClusterMode drives sessions through a real two-node
// gateway with mid-stream live migration, and still verifies every
// served schedule against the batch engine — the migration must be
// invisible in the output.
func TestRunLoadClusterMode(t *testing.T) {
	b1, b2 := loadServer(t, server.Config{}), loadServer(t, server.Config{})
	g, err := cluster.NewGateway(cluster.Options{Backends: []string{b1.URL, b2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	t.Cleanup(func() {
		gw.Close()
		g.Close()
	})
	cfg := config{
		addr: gw.URL, sessions: 3, steps: 60, stepBatch: 8, jobs: 10,
		alg: "alg2", t: 8, g: 24, seed: 5, verify: true, migrateEvery: 2,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.errs) > 0 {
		t.Fatalf("request errors: %v", rep.errs)
	}
	if rep.verified != cfg.sessions || rep.mismatches != 0 {
		t.Fatalf("verified %d/%d, %d mismatches", rep.verified, cfg.sessions, rep.mismatches)
	}
	if rep.migrations != 2 { // sessions 0 and 2
		t.Fatalf("migrations = %d, want 2", rep.migrations)
	}
	var out bytes.Buffer
	rep.write(&out, cfg)
	if !strings.Contains(out.String(), "migrations    2 sessions live-migrated") {
		t.Errorf("report does not surface migrations:\n%s", out.String())
	}
}

// TestRunLoadReusesConnections counts the daemon's accepted connections:
// sessions each keep one request in flight, so a run needs no more
// connections than sessions.
func TestRunLoadReusesConnections(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	cfg := config{
		addr: ts.URL, sessions: 12, steps: 120, stepBatch: 4, jobs: 24,
		alg: "alg2", t: 8, g: 24, seed: 11, verify: true,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.errs) > 0 {
		t.Fatalf("request errors: %v", rep.errs)
	}
	if n := opened.Load(); n > int64(cfg.sessions) {
		t.Errorf("%d requests opened %d connections, want at most %d (one per session)", rep.requests, n, cfg.sessions)
	}
}

func TestRetryDelay(t *testing.T) {
	// Fixed anchor so the HTTP-date cases are deterministic.
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	httpDate := func(d time.Duration) string { return now.Add(d).UTC().Format(http.TimeFormat) }
	for _, tc := range []struct {
		attempt    int
		retryAfter string
		want       time.Duration
	}{
		{1, "", 50 * time.Millisecond},
		{2, "", 100 * time.Millisecond},
		{3, "", 200 * time.Millisecond},
		{10, "", retryCap},                // exponent capped
		{1, "1", time.Second},             // delta-seconds: server asked for more
		{1, "600", retryCap},              // hostile Retry-After capped
		{4, "0", 400 * time.Millisecond},  // zero delta: exponential wins
		{4, "-3", 400 * time.Millisecond}, // negative delta clamps to zero
		{2, "junk", 100 * time.Millisecond},
		{2, "Mon, 32 Jan 2026 25:61:00 GMT", 100 * time.Millisecond}, // malformed date
		{1, httpDate(time.Second), time.Second},                      // HTTP-date: server asked for more
		{1, httpDate(10 * time.Minute), retryCap},                    // far-future date capped
		{4, httpDate(-time.Minute), 400 * time.Millisecond},          // past date clamps to zero
		{4, httpDate(0), 400 * time.Millisecond},                     // "now" date: exponential wins
	} {
		if got := retryDelay(tc.attempt, tc.retryAfter, now); got != tc.want {
			t.Errorf("retryDelay(%d, %q) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"junk", 0, false},
		{"2.5", 0, false}, // RFC 9110 delta-seconds are integral
		{"7", 7 * time.Second, true},
		{" 7 ", 7 * time.Second, true},
		{"-2", 0, true},
		{"Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second, true},
		{"Sat, 08 Aug 2026 11:59:00 GMT", 0, true}, // past date clamps
		// The two legacy HTTP-date formats http.ParseTime also accepts.
		{"Saturday, 08-Aug-26 12:00:30 GMT", 30 * time.Second, true},
		{"Sat Aug  8 12:00:30 2026", 30 * time.Second, true},
	} {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRetryable(t *testing.T) {
	mk := func(status int, retryAfter string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: status, Header: h}
	}
	for _, tc := range []struct {
		resp *http.Response
		want bool
	}{
		{mk(429, ""), true},
		{mk(429, "1"), true},
		{mk(503, "1"), true},
		{mk(409, "1"), true},
		{mk(503, ""), false}, // 503 without Retry-After is not the fail-open contract
		{mk(409, ""), false}, // plain conflict (duplicate id) must not retry
		{mk(500, "1"), false},
		{mk(200, ""), false},
	} {
		if got := retryable(tc.resp); got != tc.want {
			t.Errorf("retryable(%d, Retry-After %q) = %v, want %v",
				tc.resp.StatusCode, tc.resp.Header.Get("Retry-After"), got, tc.want)
		}
	}
}

func TestCLIOutputAndExit(t *testing.T) {
	ts := loadServer(t, server.Config{})
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{
		"-addr", ts.URL, "-sessions", "3", "-steps", "50", "-jobs", "8",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q stdout %q", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"sessions", "requests", "latency (ms)", "verified      3/3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCLISLOMode drives a run with -slo: after the load, the generator
// must read back GET /v1/traces, print per-phase percentiles (untraced
// requests still mint server-side http root spans, so queue-wait and
// engine-step show up without client traceparent headers), and pass
// against a generous p99 budget.
func TestCLISLOMode(t *testing.T) {
	ts := loadServer(t, server.Config{})
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{
		"-addr", ts.URL, "-sessions", "2", "-steps", "40", "-jobs", "6",
		"-slo", "-slo-p99", "30s",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q stdout %q", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"phase", "http", "queue-wait", "engine-step", "slo: PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("slo report missing %q:\n%s", want, out)
		}
	}

	// An impossible budget must flip the verdict and the exit code.
	stdout.Reset()
	stderr.Reset()
	code = cliMain([]string{
		"-addr", ts.URL, "-sessions", "1", "-steps", "20", "-jobs", "3",
		"-slo", "-slo-p99", "1ns",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("impossible budget: exit %d, want 1 (stdout %q)", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "slo: FAIL") {
		t.Errorf("slo report missing FAIL verdict:\n%s", stdout.String())
	}
}

func TestCLIFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional arg", []string{"x"}, "unexpected argument"},
		{"bad sessions", []string{"-sessions", "0"}, ">= 1"},
		{"unknown alg", []string{"-alg", "alg7"}, "unknown -alg"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cliMain(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.msg)
		}
	}
}

// TestCLIConnectionError: an unreachable daemon must be a non-zero exit
// with the failure in the report, not a hang or panic.
func TestCLIConnectionError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := cliMain([]string{
		"-addr", "http://127.0.0.1:1", "-sessions", "1", "-steps", "10", "-jobs", "2",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout %s\nstderr %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "errors 1") {
		t.Errorf("report does not count the failure:\n%s", stdout.String())
	}
}
