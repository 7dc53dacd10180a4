package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"calibsched/internal/server"
)

// runner issues one connection's share of a workload's ops.
type runner interface {
	op() error
	conn() *conn
}

// streamRunner owns every other slot of a stream workload: a session is
// only ever driven by one connection.
type streamRunner struct {
	c       *conn
	slots   []*slot
	rr      int
	retired []retirement
}

func (r *streamRunner) conn() *conn { return r.c }

func (r *streamRunner) op() error {
	s := r.slots[r.rr]
	r.rr = (r.rr + 1) % len(r.slots)
	ret, err := doOp(httpTarget{r.c}, s, nil, "")
	if ret != nil {
		r.retired = append(r.retired, *ret)
	}
	return err
}

// solveRunner issues every stride-th op of the solve-mix stream.
type solveRunner struct {
	c            *conn
	stream       *solveStream
	next, stride int
	results      []solveResult
	hits, solved int
}

type solveResult struct {
	key   int
	total int64
}

func (r *solveRunner) conn() *conn { return r.c }

func (r *solveRunner) op() error {
	op := r.stream.op(r.next)
	r.next += r.stride
	return r.solve(op)
}

// solvePollLimit bounds how long one solve may stay unfinished.
const solvePollLimit = 30 * time.Second

// solve submits one instance, polls immediately and then every
// millisecond until the solve is done, and keeps its total.
func (r *solveRunner) solve(op solveOp) error {
	body, err := json.Marshal(server.SolveRequest{T: solveT, Kind: "total", G: solveG, Jobs: op.jobs})
	if err != nil {
		return err
	}
	resp, err := r.c.call(http.MethodPost, "/v1/solve", body, http.StatusAccepted)
	if err != nil {
		return err
	}
	var sub server.SolveSubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		return fmt.Errorf("decoding solve submit: %w", err)
	}
	r.solved++
	if sub.CacheHit {
		r.hits++
	}
	deadline := time.Now().Add(solvePollLimit)
	for {
		resp, err := r.c.call(http.MethodGet, "/v1/solve/"+sub.ID, nil, http.StatusOK)
		if err != nil {
			return err
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
			Total *int64 `json:"total"`
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return fmt.Errorf("decoding solve status: %w", err)
		}
		switch st.State {
		case "done":
			if st.Total == nil {
				return fmt.Errorf("solve %s done without a total", sub.ID)
			}
			r.results = append(r.results, solveResult{key: op.key, total: *st.Total})
			return nil
		case "failed":
			return fmt.Errorf("solve %s failed: %s", sub.ID, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("solve %s still %s after %s", sub.ID, st.State, solvePollLimit)
		}
		time.Sleep(time.Millisecond)
	}
}

// sample is one open-loop op: when it was due (an offset on the
// open-loop timeline), its latency, how long it waited for its
// connection, and how late the generator sent it once it could go.
type sample struct {
	due, latency, wait, lag time.Duration
}

// openLoop sends each op at its due time, or as soon as the connection's
// previous op completes. An op can go at the later of the two; its wait
// for a busy connection counts in its latency. Timers here wake on a
// coarse (about 1 ms) tick, so the generator sends an op up to a tick
// after it could go: that lag is the host's timer slack, not the
// system's, and is reported apart instead of counted in the latency.
func openLoop(r runner, start time.Time, dues []time.Duration) []sample {
	out := make([]sample, 0, len(dues))
	free := start
	for _, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := r.op()
		end := time.Now()
		r.conn().record(err)
		ready := due
		if free.After(due) {
			ready = free
		}
		free = end
		if err == nil {
			wait := ready.Sub(due)
			out = append(out, sample{due: d, latency: end.Sub(sent) + wait, wait: wait, lag: sent.Sub(ready)})
		}
	}
	return out
}

// closedLoop sends each op as soon as the previous one completes, until
// deadline, and returns when each successful op completed (offsets from
// start).
func closedLoop(r runner, start, deadline time.Time) []time.Duration {
	var done []time.Duration
	for time.Now().Before(deadline) {
		err := r.op()
		r.conn().record(err)
		if err == nil {
			done = append(done, time.Since(start))
		}
	}
	return done
}

func parallel(rs []runner, fn func(i int, r runner)) {
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r runner) {
			defer wg.Done()
			fn(i, r)
		}(i, r)
	}
	wg.Wait()
}

// runConfig holds what one untraced run needs besides its workload.
type runConfig struct {
	seed    uint64
	seconds float64 // timed length: 60% open loop, 40% closed loop
	lifeDiv int     // divides session lives (-quick)
	work    string  // directory for daemon data
	launch  launcher
	steady  float64 // allowed change of open-loop p50 between halves
}

// runResult is one run's metrics, op counts and validity flags.
type runResult struct {
	metrics           map[string]float64
	attempted, failed int
	errs, flags       []string
}

// fail counts verification mismatches as failed ops.
func (res *runResult) fail(msgs []string) {
	res.failed += len(msgs)
	for _, m := range msgs {
		if len(res.errs) < 10 {
			res.errs = append(res.errs, m)
		}
	}
}

// trial is one untraced run of one workload against fresh daemons.
type trial struct {
	wl      workload
	cfg     runConfig
	dataDir string
	f       *fleet
	runners []runner
	streams []*streamRunner
	solves  []*solveRunner
	stream  *solveStream
	expect  map[int]int64 // verified solve totals by instance key
	res     *runResult
}

// runWorkload performs one untraced run: start, warm-up, the timed
// slices with their set-ups, and verification after each phase.
func runWorkload(wl workload, cfg runConfig) (*runResult, error) {
	if cfg.lifeDiv > 1 {
		wl.life = max(wl.life/cfg.lifeDiv, 2)
	}
	t := &trial{
		wl:      wl,
		cfg:     cfg,
		dataDir: filepath.Join(cfg.work, wl.name+"-data"),
		expect:  make(map[int]int64),
		res:     &runResult{metrics: make(map[string]float64)},
	}
	if err := os.RemoveAll(t.dataDir); err != nil {
		return nil, err
	}
	defer func() {
		if t.f != nil {
			t.f.stop()
		}
	}()
	if wl.solve {
		t.stream = newSolveStream(cfg.seed)
	}
	if err := t.run(); err != nil {
		return nil, err
	}
	for _, r := range t.runners {
		c := r.conn()
		t.res.attempted += c.attempted
		t.res.failed += c.failed
		t.res.errs = append(t.res.errs, c.errs...)
	}
	t.res.metrics["error_share"] = float64(t.res.failed) / float64(max(t.res.attempted, 1))
	return t.res, nil
}

func (t *trial) run() error {
	f, err := t.cfg.launch.launch(t.wl, t.dataDir)
	if err != nil {
		return err
	}
	t.f = f
	t.connect()
	if err := t.createSessions(t.runnerConns()); err != nil {
		return err
	}
	t.warm()
	t.verify()
	if err := t.timed(); err != nil {
		return err
	}
	rss, err := t.f.rssMB()
	if err != nil {
		return err
	}
	t.res.metrics["rss_peak_mb"] = rss
	t.verify()
	if t.wl.durable {
		return t.restart()
	}
	return nil
}

func (t *trial) runnerConns() []*conn {
	cs := make([]*conn, len(t.runners))
	for i, r := range t.runners {
		cs[i] = r.conn()
	}
	return cs
}

// createSessions creates every slot's current session, each over the
// connection of the runner that owns the slot; solve-mix has none.
func (t *trial) createSessions(conns []*conn) error {
	if t.wl.solve {
		return nil
	}
	errs := make([]error, len(t.streams))
	parallel(t.runners, func(i int, _ runner) {
		h := httpTarget{conns[i]}
		for _, s := range t.streams[i].slots {
			if err := h.create(s); err != nil {
				errs[i] = fmt.Errorf("creating session %s: %w", s.id, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp times one set-up on a fleet beside the measured one, which is
// idle meanwhile, and stops it. The set-up launches fresh daemons and
// creates one session per slot. On stream-durable the daemon starts
// instead on a copy of the live data directory, which is what a kill -9
// would leave behind (every command is acknowledged and the page cache
// survives), so WAL replay and the group journal's merge are timed; it
// is set up once it lists its sessions, whose clocks are checked after
// the clock stops.
func (t *trial) setUp() (float64, error) {
	var dir string
	if t.wl.durable {
		dir = filepath.Join(t.cfg.work, t.wl.name+"-crash")
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		if err := copyDir(t.dataDir, dir); err != nil {
			return 0, fmt.Errorf("copying the data directory: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	t0 := time.Now()
	f, err := t.cfg.launch.launch(t.wl, dir)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	conns := []*conn{newConn(f.base), newConn(f.base)}
	defer func() {
		for _, c := range conns {
			c.client.CloseIdleConnections()
		}
	}()
	var list []byte
	if t.wl.durable {
		list, err = conns[0].call(http.MethodGet, "/v1/sessions", nil, http.StatusOK)
	} else {
		err = t.createSessions(conns)
	}
	dt := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if list != nil {
		if err := t.checkClocks(list); err != nil {
			return 0, err
		}
	}
	return dt, nil
}

// checkClocks verifies a recovered daemon's session list against the
// slots: exactly the live sessions, each at its last acknowledged clock.
func (t *trial) checkClocks(body []byte) error {
	var list server.SessionListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("decoding session list: %w", err)
	}
	var slots []*slot
	for _, r := range t.streams {
		slots = append(slots, r.slots...)
	}
	t.res.fail(verifyClocks(list, slots))
	return nil
}

// connect builds the two runners on first use and points them at the
// current fleet afterwards.
func (t *trial) connect() {
	if t.runners != nil {
		for _, r := range t.runners {
			r.conn().retarget(t.f.base)
		}
		return
	}
	var slots []*slot
	if !t.wl.solve {
		slots = newSlots(t.cfg.seed, t.wl)
	}
	for c := 0; c < 2; c++ {
		cn := newConn(t.f.base)
		if t.wl.solve {
			r := &solveRunner{c: cn, stream: t.stream, next: c, stride: 2}
			t.solves = append(t.solves, r)
			t.runners = append(t.runners, r)
			continue
		}
		r := &streamRunner{c: cn}
		for i := c; i < len(slots); i += 2 {
			r.slots = append(r.slots, slots[i])
		}
		t.streams = append(t.streams, r)
		t.runners = append(t.runners, r)
	}
}

// warm runs the untimed closed-loop warm-up: until every slot has
// recycled once, which spreads session ages over a full life; for
// solve-mix, until the hot set is cached.
func (t *trial) warm() {
	parallel(t.runners, func(i int, r runner) {
		if t.wl.solve {
			sr := t.solves[i]
			for h := i; h < hotSetSize; h += len(t.runners) {
				sr.c.record(sr.solve(solveOp{key: h, jobs: t.stream.hot[h]}))
			}
			return
		}
		sr := t.streams[i]
		for !recycled(sr.slots) {
			sr.c.record(sr.op())
		}
	})
}

// restart kills the durable daemon with SIGKILL, relaunches it on the
// same data directory and checks the recovered clocks.
func (t *trial) restart() error {
	t.f.stop()
	f, err := t.cfg.launch.launch(t.wl, t.dataDir)
	if err != nil {
		return err
	}
	t.f = f
	t.connect()
	body, err := t.streams[0].c.call(http.MethodGet, "/v1/sessions", nil, http.StatusOK)
	if err != nil {
		return err
	}
	return t.checkClocks(body)
}

// sliceLen is the period of the timed phases. Each slice runs the open
// loop for 60% of it, then setupsPerSlice set-ups, then the closed loop
// for 40%. Alternating spreads each loop's samples, and the set-ups,
// over the whole run, so a host slowdown lasting a few seconds lands in
// a few windows of each instead of in one of them.
const sliceLen = 2500 * time.Millisecond

// setupsPerSlice set-ups follow each open segment; setup_s is their
// median. They sit before the closed segment, so whatever a stopped
// fleet leaves for the kernel to clean up lands there, not in the
// latencies.
const setupsPerSlice = 3

// closedWindow is the window of the closed loop's throughput samples.
const closedWindow = 250 * time.Millisecond

// timed runs the measured slices. op_p50_ms and op_p90_ms are the
// medians over slices of each open segment's percentiles, ops_per_s the
// median of the closed windows' rates and setup_s the median set-up, so
// a slow stretch moves them little; the rarer tails (op_p99_ms,
// op_p999_ms) pool every sample.
func (t *trial) timed() error {
	total := time.Duration(t.cfg.seconds * float64(time.Second))
	n := max(1, int((total+sliceLen/2)/sliceLen))
	openDur := total * 6 / 10 / time.Duration(n)
	closedDur := total * 4 / 10 / time.Duration(n)
	dues := dueTimes(t.cfg.seed, t.wl.rate, openDur*time.Duration(n))
	hits0, solved0 := t.solveCounts()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var (
		lat, lag, first, second []float64
		p50s, p90s, ends, rates []float64
		setups                  []float64
		open, closed            int
	)
	next := 0
	for i := 0; i < n; i++ {
		lo := openDur * time.Duration(i)
		from := next
		for next < len(dues) && dues[next] < lo+openDur {
			next++
		}
		seg := t.openSegment(dues[from:next], from, lo)
		open += len(seg)
		var segLat []float64
		for _, s := range seg {
			l := ms(s.latency)
			segLat = append(segLat, l)
			lat = append(lat, l)
			lag = append(lag, ms(s.lag))
			if s.due < openDur*time.Duration(n)/2 {
				first = append(first, l)
			} else {
				second = append(second, l)
			}
		}
		if len(seg) > 0 {
			sorted := sortedCopy(segLat)
			p50s = append(p50s, quantile(sorted, 0.5))
			p90s = append(p90s, quantile(sorted, 0.9))
			var endWait []float64
			for _, s := range seg[len(seg)*9/10:] {
				endWait = append(endWait, ms(s.wait))
			}
			ends = append(ends, median(endWait))
		}
		for k := 0; k < setupsPerSlice; k++ {
			dt, err := t.setUp()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, dt)
		}
		r, c := t.closedSegment(closedDur)
		rates = append(rates, r...)
		closed += c
	}

	m := t.res.metrics
	m["setup_s"] = median(setups)
	m["open_ops"], m["closed_ops"] = float64(open), float64(closed)
	m["ops_per_s"] = median(rates)
	if t.wl.solve {
		hits, solved := t.solveCounts()
		m["hit_ratio"] = float64(hits-hits0) / float64(max(solved-solved0, 1))
	}
	if open == 0 {
		t.res.flags = append(t.res.flags, "open loop completed no ops")
		return nil
	}
	m["op_p50_ms"], m["op_p90_ms"] = median(p50s), median(p90s)
	sorted := sortedCopy(lat)
	for _, tl := range tails[2:] { // p99 and p999
		if tl.supported(len(sorted)) {
			m["op_"+tl.name+"_ms"] = quantile(sorted, tl.q())
		}
	}
	lags := sortedCopy(lag)
	m["gen_lag_p50_ms"], m["gen_lag_p99_ms"] = quantile(lags, 0.5), quantile(lags, 0.99)
	m["backlog_ms"] = median(ends)

	if p1, p2 := median(first), median(second); math.Abs(p2-p1)/p1 > t.cfg.steady {
		t.res.flags = append(t.res.flags, fmt.Sprintf("open-loop p50 moved %.1f%% between halves (%.3f -> %.3f ms), more than its %.0f%% bound", 100*math.Abs(p2-p1)/p1, p1, p2, 100*t.cfg.steady))
	}
	if lag := m["gen_lag_p99_ms"]; lag > 2 {
		t.res.flags = append(t.res.flags, fmt.Sprintf("generator lag p99 %.2f ms > 2 ms: run invalid", lag))
	}
	if b := m["backlog_ms"]; b > 10 {
		t.res.flags = append(t.res.flags, fmt.Sprintf("ops waited %.1f ms for the connection at the end of the open segments: the rate builds a backlog", b))
	}
	return nil
}

// openSegment sends one slice's share of the open-loop schedule: dues
// are offsets on the open timeline, the first being op number base, and
// the segment starts at offset lo. Op k goes to connection k mod 2.
func (t *trial) openSegment(dues []time.Duration, base int, lo time.Duration) []sample {
	n := len(t.runners)
	per := make([][]sample, n)
	start := time.Now()
	parallel(t.runners, func(i int, r runner) {
		var mine []time.Duration
		for k, d := range dues {
			if (base+k)%n == i {
				mine = append(mine, d-lo)
			}
		}
		per[i] = openLoop(r, start, mine)
	})
	var out []sample
	for _, ss := range per {
		for _, s := range ss {
			s.due += lo
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// closedSegment runs the closed loop for d and returns the rate of each
// window and the ops completed.
func (t *trial) closedSegment(d time.Duration) ([]float64, int) {
	start := time.Now()
	done := make([][]time.Duration, len(t.runners))
	parallel(t.runners, func(i int, r runner) {
		done[i] = closedLoop(r, start, start.Add(d))
	})
	nw := max(1, int(d/closedWindow))
	win := d / time.Duration(nw)
	rates := make([]float64, nw)
	ops := 0
	for _, ds := range done {
		ops += len(ds)
		for _, at := range ds {
			if w := int(at / win); w < nw {
				rates[w]++
			}
		}
	}
	for i := range rates {
		rates[i] /= win.Seconds()
	}
	return rates, ops
}

func (t *trial) solveCounts() (hits, solved int) {
	for _, r := range t.solves {
		hits += r.hits
		solved += r.solved
	}
	return hits, solved
}

// verify checks, outside the timed window, every output the last phase
// produced; each mismatch counts as a failed op.
func (t *trial) verify() {
	for _, r := range t.streams {
		t.res.fail(verifyRetirements(r.retired))
		r.retired = nil
	}
	for _, r := range t.solves {
		t.res.fail(verifySolves(t.stream, r.results, t.expect))
		r.results = nil
	}
}
