// Command calibload is a concurrent load generator for calibserved: it
// drives N parallel scheduling sessions end to end (create, feed
// arrivals, step to completion, snapshot, delete) and prints throughput
// and latency percentiles, giving the repo its first end-to-end serving
// benchmark.
//
// Each session replays a deterministic seeded workload, so by default
// every session's served schedule cost is also verified against the
// batch form of the same algorithm run locally (-verify=false skips it).
// Backpressure (429 + Retry-After) is honored with bounded retries and
// reported separately from hard errors.
//
// Example, against a local daemon:
//
//	calibserved -addr :8373 &
//	calibload -addr http://127.0.0.1:8373 -sessions 64 -steps 200
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/stats"
	"calibsched/internal/workload"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed flag set of one calibload run.
type config struct {
	addr         string
	sessions     int
	steps        int64
	stepBatch    int64
	jobs         int
	alg          string
	t, g         int64
	seed         uint64
	verify       bool
	timeout      time.Duration
	migrateEvery int
	slo          bool
	sloP99       time.Duration
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calibload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8373", "base URL of the calibserved daemon")
	fs.IntVar(&cfg.sessions, "sessions", 64, "parallel sessions to drive")
	fs.Int64Var(&cfg.steps, "steps", 200, "release horizon per session (sessions then run to completion)")
	fs.Int64Var(&cfg.stepBatch, "step-batch", 16, "time steps per step request")
	fs.IntVar(&cfg.jobs, "jobs", 64, "jobs generated per session (those released past the horizon are dropped)")
	fs.StringVar(&cfg.alg, "alg", "alg2", "engine per session: "+strings.Join(online.EngineNames(), "|"))
	fs.Int64Var(&cfg.t, "T", 16, "calibration length T")
	fs.Int64Var(&cfg.g, "G", 64, "calibration cost G")
	fs.Uint64Var(&cfg.seed, "seed", 1, "base workload seed (session i uses seed+i)")
	fs.BoolVar(&cfg.verify, "verify", true, "verify each served cost against the local batch algorithm")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout")
	fs.IntVar(&cfg.migrateEvery, "migrate-every", 0, "cluster mode: live-migrate every Nth session mid-stream via the gateway's POST /v1/cluster/migrate (0 disables; requires -addr to point at calibgate)")
	fs.BoolVar(&cfg.slo, "slo", false, "after the run, read GET /v1/traces back from the target and report per-phase p50/p95/p99 with a pass/fail verdict")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 500*time.Millisecond, "with -slo: the p99 budget for the root phase (proxy at a gateway, http at a node)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "calibload: unexpected argument %q (flags only)\n", fs.Arg(0))
		return 2
	}
	if cfg.sessions < 1 || cfg.steps < 1 || cfg.stepBatch < 1 || cfg.jobs < 0 {
		fmt.Fprintln(stderr, "calibload: -sessions, -steps, and -step-batch must be >= 1 and -jobs >= 0")
		return 2
	}
	if cfg.migrateEvery < 0 {
		fmt.Fprintln(stderr, "calibload: -migrate-every must be >= 0")
		return 2
	}
	if _, ok := online.LookupEngine(cfg.alg); !ok {
		fmt.Fprintf(stderr, "calibload: unknown -alg %q (have %s)\n", cfg.alg, strings.Join(online.EngineNames(), ", "))
		return 2
	}
	if cfg.sloP99 <= 0 {
		fmt.Fprintln(stderr, "calibload: -slo-p99 must be > 0")
		return 2
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "calibload:", err)
		return 1
	}
	rep.write(stdout, cfg)
	code := 0
	if len(rep.errs) > 0 || rep.mismatches > 0 {
		code = 1
	}
	if cfg.slo {
		pass, err := runSLO(cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "calibload:", err)
			return 1
		}
		if !pass {
			code = 1
		}
	}
	return code
}

// report aggregates the run's outcome across all session workers.
type report struct {
	mu         sync.Mutex
	requests   int64
	backoffs   int64         // 429 retries (arrival-buffer / session backpressure)
	unavail    int64         // 503/409 retries (gateway fail-open, busy admin plane)
	retrySlept time.Duration // total time spent waiting between retries
	migrations int64         // cluster mode: live migrations triggered
	jobsFed    int64
	stepsFed   int64
	latencies  []float64 // milliseconds, one per request
	elapsedSec float64
	verified   int
	mismatches int
	errs       []string
}

func (r *report) addErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 10 { // keep the report readable under total failure
		r.errs = append(r.errs, err.Error())
	} else {
		r.errs[9] = "... and more"
	}
}

func (r *report) write(w io.Writer, cfg config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Float64s(r.latencies)
	fmt.Fprintf(w, "calibload: %d sessions × %d-step horizon, %s T=%d G=%d\n",
		cfg.sessions, cfg.steps, cfg.alg, cfg.t, cfg.g)
	fmt.Fprintf(w, "fed           %d jobs, %d steps\n", r.jobsFed, r.stepsFed)
	fmt.Fprintf(w, "requests      %d   errors %d   backpressure retries %d   unavailable retries %d   retry wait %.2fs\n",
		r.requests, len(r.errs), r.backoffs, r.unavail, r.retrySlept.Seconds())
	if r.migrations > 0 {
		fmt.Fprintf(w, "migrations    %d sessions live-migrated mid-stream\n", r.migrations)
	}
	if r.elapsedSec > 0 {
		fmt.Fprintf(w, "elapsed       %.2fs   throughput %.0f req/s   %.0f steps/s\n",
			r.elapsedSec, float64(r.requests)/r.elapsedSec, float64(r.stepsFed)/r.elapsedSec)
	}
	if len(r.latencies) > 0 {
		fmt.Fprintf(w, "latency (ms)  p50 %s   p90 %s   p99 %s   max %s\n",
			stats.FormatFloat(stats.Quantile(r.latencies, 0.50)),
			stats.FormatFloat(stats.Quantile(r.latencies, 0.90)),
			stats.FormatFloat(stats.Quantile(r.latencies, 0.99)),
			stats.FormatFloat(r.latencies[len(r.latencies)-1]))
	}
	if cfg.verify {
		fmt.Fprintf(w, "verified      %d/%d sessions match the batch engine (%d mismatches)\n",
			r.verified, cfg.sessions, r.mismatches)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "error         %s\n", e)
	}
}

// runLoad drives cfg.sessions parallel sessions and aggregates a report.
// The returned error covers only harness-level failures; per-request
// failures land in the report.
func runLoad(cfg config) (*report, error) {
	rep := &report{}
	hc := newHTTPClient(cfg)
	defer hc.CloseIdleConnections()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := driveSession(cfg, i, hc, rep); err != nil {
				rep.addErr(fmt.Errorf("session %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	rep.elapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// newHTTPClient sizes the connection pool to the sessions: each session
// has at most one request in flight, so one connection per session
// carries the whole run. The default transport keeps only two idle per
// host, and without the per-host cap a request that overtakes its
// session's connection on the way back to the pool dials another.
func newHTTPClient(cfg config) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = cfg.sessions
	tr.MaxIdleConnsPerHost = cfg.sessions
	tr.MaxConnsPerHost = cfg.sessions
	return &http.Client{Timeout: cfg.timeout, Transport: tr}
}

// driveSession runs one full session lifecycle against the daemon.
func driveSession(cfg config, i int, hc *http.Client, rep *report) error {
	jobs, err := sessionJobs(cfg, i)
	if err != nil {
		return err
	}
	c := &client{base: strings.TrimRight(cfg.addr, "/"), hc: hc, rep: rep}

	var info server.SessionInfo
	if err := c.do("POST", "/v1/sessions",
		server.CreateSessionRequest{T: cfg.t, G: cfg.g, Alg: cfg.alg}, &info); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	sessURL := "/v1/sessions/" + info.ID

	// Cluster mode: session i migrates once, mid-stream, after its first
	// step batch — exercising drain → ship → replay → resume under load.
	migrate := cfg.migrateEvery > 0 && i%cfg.migrateEvery == 0

	next := 0
	now := int64(0)
	done := len(jobs) == 0
	for !done || next < len(jobs) {
		if batch := arrivalsThrough(jobs, &next, now+cfg.stepBatch); len(batch) > 0 {
			var ar server.ArrivalsResponse
			if err := c.do("POST", sessURL+"/arrivals", server.ArrivalsRequest{Jobs: batch}, &ar); err != nil {
				return fmt.Errorf("arrivals at step %d: %w", now, err)
			}
			rep.mu.Lock()
			rep.jobsFed += int64(len(batch))
			rep.mu.Unlock()
		}
		var sr server.StepResponse
		if err := c.do("POST", sessURL+"/step", server.StepRequest{Steps: cfg.stepBatch}, &sr); err != nil {
			return fmt.Errorf("step at %d: %w", now, err)
		}
		now = sr.Now
		done = sr.Done
		rep.mu.Lock()
		rep.stepsFed += cfg.stepBatch
		rep.mu.Unlock()
		if migrate && !done {
			migrate = false
			if err := c.do("POST", "/v1/cluster/migrate",
				map[string]string{"session": info.ID}, nil); err != nil {
				return fmt.Errorf("migrate at step %d: %w", now, err)
			}
			rep.mu.Lock()
			rep.migrations++
			rep.mu.Unlock()
		}
		if now > cfg.steps+10_000_000 {
			return fmt.Errorf("session never completed (clock at %d)", now)
		}
	}

	var sched server.ScheduleResponse
	if err := c.do("GET", sessURL+"/schedule", nil, &sched); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	if !sched.Done {
		return fmt.Errorf("final snapshot not done: %d/%d assigned", sched.Assigned, len(jobs))
	}
	if cfg.verify {
		if err := verifySession(cfg, jobs, &sched); err != nil {
			rep.mu.Lock()
			rep.mismatches++
			rep.mu.Unlock()
			return err
		}
		rep.mu.Lock()
		rep.verified++
		rep.mu.Unlock()
	}
	if err := c.do("DELETE", sessURL, nil, nil); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// sessionJobs generates session i's deterministic workload, truncated to
// the release horizon and presented in instance order (so server job IDs
// coincide with the local instance's).
func sessionJobs(cfg config, i int) ([]server.JobSpec, error) {
	weights := workload.WeightZipf
	if spec, _ := online.LookupEngine(cfg.alg); spec.UnitWeightsOnly {
		weights = workload.WeightUnit
	}
	lambda := float64(cfg.jobs) / float64(cfg.steps)
	if lambda <= 0 {
		lambda = 0.1
	}
	in, err := workload.Spec{
		N: cfg.jobs, P: 1, T: cfg.t, Seed: cfg.seed + uint64(i),
		Arrival: workload.ArrivalPoisson, Lambda: lambda,
		Weights: weights, WMax: 9, ZipfS: 1.4,
	}.Build()
	if err != nil {
		return nil, fmt.Errorf("building workload: %w", err)
	}
	var jobs []server.JobSpec
	for _, j := range in.Jobs {
		if j.Release < cfg.steps {
			jobs = append(jobs, server.JobSpec{Release: j.Release, Weight: j.Weight})
		}
	}
	return jobs, nil
}

// arrivalsThrough pops jobs released before end from the cursor.
func arrivalsThrough(jobs []server.JobSpec, next *int, end int64) []server.JobSpec {
	start := *next
	for *next < len(jobs) && jobs[*next].Release < end {
		*next++
	}
	return jobs[start:*next]
}

// verifySession reruns the session's jobs through the batch algorithm
// and compares the exact total cost and calibration count.
func verifySession(cfg config, jobs []server.JobSpec, sched *server.ScheduleResponse) error {
	releases := make([]int64, len(jobs))
	weights := make([]int64, len(jobs))
	for i, j := range jobs {
		releases[i] = j.Release
		weights[i] = j.Weight
	}
	in, err := core.NewInstance(1, cfg.t, releases, weights)
	if err != nil {
		return fmt.Errorf("rebuilding instance: %w", err)
	}
	var res *online.Result
	if cfg.alg == "alg1" {
		res, err = online.Alg1(in, cfg.g)
	} else {
		res, err = online.Alg2(in, cfg.g)
	}
	if err != nil {
		return fmt.Errorf("batch rerun: %w", err)
	}
	wantCost := core.TotalCost(in, res.Schedule, cfg.g)
	if sched.TotalCost != wantCost || len(sched.Calibrations) != res.Schedule.NumCalibrations() {
		return fmt.Errorf("served cost %d with %d calibrations, batch cost %d with %d",
			sched.TotalCost, len(sched.Calibrations), wantCost, res.Schedule.NumCalibrations())
	}
	return nil
}

// Retry pacing: capped exponential starting at retryBase, raised to the
// server's Retry-After when it asks for a longer wait. The cap keeps a
// misbehaving Retry-After (or deep backpressure) from stalling a worker
// for the whole run.
const (
	retryBase = 50 * time.Millisecond
	retryCap  = 2 * time.Second
)

// retryable reports whether a response is worth re-issuing: 429 is the
// documented backpressure contract, and a 503 or 409 carrying
// Retry-After is the cluster gateway's fail-open answer (node not
// ready, admin operation in flight) — transient by definition.
func retryable(resp *http.Response) bool {
	if resp.StatusCode == http.StatusTooManyRequests {
		return true
	}
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusConflict {
		return resp.Header.Get("Retry-After") != ""
	}
	return false
}

// retryDelay computes the wait before attempt+1: exponential in the
// attempt number, never below what Retry-After requests, never above
// retryCap. now anchors the HTTP-date form of Retry-After; callers pass
// time.Now().
func retryDelay(attempt int, retryAfter string, now time.Time) time.Duration {
	d := retryBase << (attempt - 1)
	if ra, ok := parseRetryAfter(retryAfter, now); ok && ra > d {
		d = ra
	}
	if d > retryCap {
		d = retryCap
	}
	return d
}

// parseRetryAfter decodes both RFC 9110 §10.2.3 forms of Retry-After:
// delta-seconds and HTTP-date (the latter via http.ParseTime, which
// accepts all three permitted date formats). A date in the past or a
// negative delta clamps to zero — the server asked for no extra wait —
// and garbage reports !ok so the caller keeps its exponential schedule.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			secs = 0
		}
		return time.Duration(secs) * time.Second, true
	}
	if when, err := http.ParseTime(v); err == nil {
		d := when.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// client is a minimal JSON client that records latency per request and
// backs off on 429/503/409 responses per their Retry-After contract.
type client struct {
	base string
	hc   *http.Client
	rep  *report
}

func (c *client) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	const maxAttempts = 5
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := c.hc.Do(req)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		c.rep.mu.Lock()
		c.rep.requests++
		c.rep.latencies = append(c.rep.latencies, float64(elapsed)/float64(time.Millisecond))
		c.rep.mu.Unlock()

		if attempt < maxAttempts && retryable(resp) {
			delay := retryDelay(attempt, resp.Header.Get("Retry-After"), time.Now())
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.rep.mu.Lock()
			if resp.StatusCode == http.StatusTooManyRequests {
				c.rep.backoffs++
			} else {
				c.rep.unavail++
			}
			c.rep.retrySlept += delay
			c.rep.mu.Unlock()
			time.Sleep(delay)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			var er server.ErrorResponse
			msg := ""
			if json.NewDecoder(resp.Body).Decode(&er) == nil {
				msg = ": " + er.Error
			}
			return fmt.Errorf("%s %s: status %d%s", method, path, resp.StatusCode, msg)
		}
		if out != nil && resp.StatusCode != http.StatusNoContent {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return nil
	}
}
