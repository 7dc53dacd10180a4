package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calibsched/internal/cluster"
	"calibsched/internal/offline"
	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/solve"
	"calibsched/internal/store"
)

// The traced ladder (-trace) replays a workload's seeded op stream
// in-process against one layer at a time. Every layer is timed from
// outside, through its public functions only, and each rung adds one
// layer to the one below it, so the difference between two rungs is the
// added layer's self time:
//
//	online engine → server session → HTTP+JSON → spans → calibgate hop
//	                              ↘ store append / fsync / group commit
//	offline DP → solve pool (cache) → HTTP solve

// span is one timed call: its name, start and end (ns since the trace
// began) and the index of the span that caused it (-1 for none).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. Children attach
// to the root span in flight (cur): the rungs that record children drive
// one request at a time.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) begin(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// root starts a span that child spans attach to. A nil tracer or an
// empty name records nothing.
func (t *tracer) root(name string) int32 {
	if t == nil || name == "" {
		return -1
	}
	id := t.begin(name, -1)
	t.cur.Store(id)
	return id
}

// child starts a span under the root in flight, if any.
func (t *tracer) child(name string) int32 {
	parent := t.cur.Load()
	if parent < 0 {
		return -1
	}
	return t.begin(name, parent)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.cur.CompareAndSwap(id, -1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// roots counts the timed calls: spans without a parent.
func (t *tracer) roots() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Parent < 0 {
			n++
		}
	}
	return n
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// timings returns, for every span named name recorded since mark, its
// duration and the part of it covered by its direct children, in µs. A
// span's self time is the first minus the second.
func (t *tracer) timings(mark int, name string) (dur, covered []float64) {
	t.mu.Lock()
	spans := t.spans[mark:len(t.spans):len(t.spans)]
	t.mu.Unlock()
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= int32(mark) {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		dur = append(dur, us(s.End-s.Start))
		covered = append(covered, us(union(kids[int32(mark+i)])))
	}
	return dur, covered
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// union returns the length of the union of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, math.MinInt64
	for _, v := range iv {
		start := max(v[0], end)
		if v[1] > start {
			total += v[1] - start
			end = v[1]
		}
	}
	return total
}

// wrap times every request h serves as a child span.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.child(name)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// timedTransport times each backend exchange of the gateway as a child
// span that ends when the gateway closes the response body.
type timedTransport struct {
	tr   *tracer
	name string
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.child(t.name)
	resp, err := t.next.RoundTrip(req)
	if err != nil || id < 0 {
		t.tr.end(id)
		return resp, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	end  func()
	done bool
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.end()
	}
	return err
}

// ladder runs the rungs. Each rung replays the seeded op stream of the
// workload whose end-to-end metrics its layer should move, so there is
// one ladder, whichever workload a traced run names.
type ladder struct {
	seed    uint64
	lifeDiv int           // divides session lives (-quick)
	k       int           // repetitions per rung
	scale   float64       // multiplies each rung's op budget per repetition
	slice   time.Duration // time budget per repetition
	work    string        // directory for the rungs' stores
	tr      *tracer
	vals    map[string][]float64 // per-repetition values
	solve   *solveStream
	// expect caches verified solve totals by instance key.
	expect  map[int]int64
	checked int      // outputs verified
	bad     []string // verification mismatches
}

// shape is the named stream workload as the ladder replays it.
func (l *ladder) shape(name string) workload {
	wl, _ := lookupWorkload(name)
	if l.lifeDiv > 1 {
		wl.life = max(wl.life/l.lifeDiv, 2)
	}
	return wl
}

func (l *ladder) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

func (l *ladder) budget(ops int) int { return max(1, int(float64(ops)*l.scale)) }

func (l *ladder) check(msgs []string) { l.bad = append(l.bad, msgs...) }

// drive issues up to n ops of the slots' stream against t within one
// repetition's time slice, timing every tick as a root span named span.
// Retired sessions with a final schedule are verified.
func (l *ladder) drive(t streamTarget, slots []*slot, rr *int, n int, span string) error {
	deadline := time.Now().Add(l.slice)
	var retired []retirement
	for i := 0; i < n && (span == "" || time.Now().Before(deadline)); i++ {
		if span == "" && recycled(slots) {
			break
		}
		s := slots[*rr]
		*rr = (*rr + 1) % len(slots)
		ret, err := doOp(t, s, l.tr, span)
		if err != nil {
			return err
		}
		if ret != nil {
			retired = append(retired, *ret)
		}
	}
	l.checked += len(retired)
	l.check(verifyRetirements(retired))
	return nil
}

// warmUp drives t untimed until every slot has recycled once, or for at
// most n ops.
func (l *ladder) warmUp(t streamTarget, slots []*slot, rr *int, n int) error {
	for _, s := range slots {
		if err := t.create(s); err != nil {
			return err
		}
	}
	return l.drive(t, slots, rr, n, "")
}

func (l *ladder) run() error {
	mem, gateway, durable := l.shape("stream-mem"), l.shape("stream-gateway"), l.shape("stream-durable")
	for _, rung := range []func() error{
		// stream-mem: engine, session worker, HTTP with and without spans.
		func() error { return l.engineRung(mem) },
		func() error { return l.sessionRung(mem, "server.session.tick_us", false) },
		func() error { return l.httpRung(mem) },
		// stream-gateway: the calibgate hop.
		func() error { return l.clusterRung(gateway) },
		// stream-durable: snapshots and reads at its session ages, the
		// in-memory session rung the persist rung is measured against,
		// appends, persistence and recovery.
		func() error { return l.snapshotRung(durable) },
		func() error { return l.sessionRung(durable, "server.session.durable_tick_us", true) },
		func() error { return l.appendRung(durable, "none", store.Options{Fsync: store.FsyncNone}, 1) },
		func() error { return l.appendRung(durable, "always", store.Options{Fsync: store.FsyncAlways}, 1) },
		func() error {
			return l.appendRung(durable, "group", store.Options{Fsync: store.FsyncAlways, GroupCommit: true}, 2)
		},
		func() error { return l.persistRung(durable) },
		// solve-mix: the DP, the solve pool and its cache, HTTP solves.
		l.dpRung, l.poolRung, l.httpSolveRung,
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	sub := func(name, a, b string) {
		for i := range l.vals[a] {
			l.add(name, l.vals[a][i]-l.vals[b][i])
		}
	}
	sub("server.session.self_us", "server.session.tick_us", "online.tick_us")
	sub("server.http.self_us", "server.http.nospans_us", "server.session.tick_us")
	sub("trace.spans.tick_us", "server.http.tick_us", "server.http.nospans_us")
	sub("server.persist.self_us", "server.persist.tick_us", "server.session.durable_tick_us")
	sub("server.http.solve.self_us", "server.http.solve_us", "solve.hit_us")
	return nil
}

// ladderRungs is the number of timed drives in one repetition of the
// whole ladder (httpRung drives two servers); each gets an equal share
// of the run's seconds.
const ladderRungs = 14

// engineRung steps bare engines (online.tick_us).
func (l *ladder) engineRung(wl workload) error {
	slots := newSlots(l.seed, wl)
	et := newEngineTarget(len(slots))
	rr := 0
	if err := l.warmUp(et, slots, &rr, math.MaxInt); err != nil {
		return err
	}
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		if err := l.drive(et, slots, &rr, l.budget(4000), "online.tick"); err != nil {
			return err
		}
		dur, _ := l.tr.timings(mark, "online.tick")
		l.add("online.tick_us", median(dur))
	}
	return nil
}

// snapshotRung ages bare engines and, after each repetition's ticks,
// snapshots every engine at its current age through the store
// (store.snapshot_us, store.snapshot_kb).
func (l *ladder) snapshotRung(wl workload) error {
	slots := newSlots(l.seed, wl)
	et := newEngineTarget(len(slots))
	rr := 0
	if err := l.warmUp(et, slots, &rr, math.MaxInt); err != nil {
		return err
	}
	dir := filepath.Join(l.work, "snapshots")
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logs := make([]*store.Log, len(slots))
	defer func() {
		for _, lg := range logs {
			if lg != nil {
				lg.Abort()
			}
		}
	}()
	for rep := 0; rep < l.k; rep++ {
		if err := l.drive(et, slots, &rr, l.budget(4000), "online.tick"); err != nil {
			return err
		}
		var times, kb []float64
		for _, s := range slots {
			if logs[s.idx] == nil {
				if logs[s.idx], err = st.Create(fmt.Sprintf("snap-%03d", s.idx)); err != nil {
					return err
				}
			}
			snapper, ok := et.engs[s.idx].(online.Snapshotter)
			if !ok {
				return fmt.Errorf("alg2 engine does not implement online.Snapshotter")
			}
			id := l.tr.root("store.snapshot")
			state, err := snapper.MarshalState()
			if err != nil {
				return err
			}
			snap := &store.Snapshot{
				Create: store.CreateCommand{Alg: "alg2", T: sessionT, G: sessionG},
				Engine: state,
				Jobs:   jobRecs(s.jobs[:s.posted], 0),
			}
			if err := logs[s.idx].WriteSnapshot(snap); err != nil {
				return err
			}
			times = append(times, us(int64(l.tr.end(id))))
			fi, err := os.Stat(filepath.Join(logs[s.idx].Dir(), "snap"))
			if err != nil {
				return err
			}
			kb = append(kb, float64(fi.Size())/1024)
		}
		l.add("store.snapshot_us", median(times))
		l.add("store.snapshot_kb", median(kb))
	}
	return nil
}

func jobRecs(jobs []server.JobSpec, base int) []store.JobRec {
	recs := make([]store.JobRec, len(jobs))
	for i, j := range jobs {
		recs[i] = store.JobRec{ID: base + i, Release: j.Release, Weight: j.Weight}
	}
	return recs
}

func shutdown(m *server.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.Shutdown(ctx)
}

// sessionRung drives an in-memory session manager: Get + Arrivals + Step
// per tick, reported as tick, and with reads, after each repetition, one
// Snapshot of every session at its current age (server.session.read_us).
func (l *ladder) sessionRung(wl workload, tick string, reads bool) error {
	m, err := server.NewManager(server.Config{})
	if err != nil {
		return err
	}
	defer shutdown(m)
	t := sessionTarget{m}
	slots := newSlots(l.seed, wl)
	rr := 0
	if err := l.warmUp(t, slots, &rr, math.MaxInt); err != nil {
		return err
	}
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		if err := l.drive(t, slots, &rr, l.budget(3000), "server.session.tick"); err != nil {
			return err
		}
		dur, _ := l.tr.timings(mark, "server.session.tick")
		l.add(tick, median(dur))
		if !reads {
			continue
		}
		var times []float64
		for _, s := range slots {
			id := l.tr.root("server.session.read")
			if _, err := t.read(s); err != nil {
				return err
			}
			times = append(times, us(int64(l.tr.end(id))))
		}
		l.add("server.session.read_us", median(times))
	}
	return nil
}

// httpRung drives server.New behind two loopback httptest servers: one
// with the daemon's default span store, which records every request, and
// one with SpanStoreSize -1, the nil-recorder path. Their repetitions
// alternate, so drift does not swamp the difference between them, the
// span store's cost. Bench-side middleware times the handler, which
// splits the round trip into handler and wire time.
func (l *ladder) httpRung(wl workload) error {
	type variant struct {
		name  string
		t     httpTarget
		slots []*slot
		rr    int
	}
	var vs []*variant
	for _, size := range []int{0, -1} {
		srv, err := server.New(server.Config{SpanStoreSize: size})
		if err != nil {
			return err
		}
		url, stop := loopback(srv, l.tr.wrap("server.http.handler", srv))
		defer stop()
		c := newConn(url)
		defer c.client.CloseIdleConnections()
		v := &variant{name: "server.http.tick", t: httpTarget{c}, slots: newSlots(l.seed, wl)}
		if size < 0 {
			v.name = "server.http.nospans"
		}
		if err := l.warmUp(v.t, v.slots, &v.rr, l.budget(400)); err != nil {
			return err
		}
		vs = append(vs, v)
	}
	for rep := 0; rep < l.k; rep++ {
		for _, v := range vs {
			mark := l.tr.mark()
			if err := l.drive(v.t, v.slots, &v.rr, l.budget(1500), v.name); err != nil {
				return err
			}
			dur, covered := l.tr.timings(mark, v.name)
			if v.name == "server.http.nospans" {
				l.add("server.http.nospans_us", median(dur))
				continue
			}
			l.add("server.http.tick_us", median(dur))
			l.add("server.http.handler_us", median(covered))
			l.add("server.http.wire_us", median(diff(dur, covered)))
		}
	}
	return nil
}

func diff(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// clusterRung drives cluster.NewGateway over two in-memory backends; a
// bench RoundTripper installed as the gateway's client times each backend
// exchange, so the gateway round trip splits into backend and gateway
// (self) time.
func (l *ladder) clusterRung(wl workload) error {
	var backends []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{})
		if err != nil {
			return err
		}
		url, stop := loopback(srv, srv)
		defer stop()
		backends = append(backends, url)
	}
	rt := timedTransport{tr: l.tr, name: "cluster.backend", next: http.DefaultTransport.(*http.Transport).Clone()}
	g, err := cluster.NewGateway(cluster.Options{Backends: backends, Client: &http.Client{Transport: rt}})
	if err != nil {
		return err
	}
	defer g.Close()
	gts := httptest.NewServer(g)
	defer gts.Close()
	c := newConn(gts.URL)
	defer c.client.CloseIdleConnections()
	t := httpTarget{c}
	slots := newSlots(l.seed, wl)
	rr := 0
	if err := l.warmUp(t, slots, &rr, l.budget(400)); err != nil {
		return err
	}
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		if err := l.drive(t, slots, &rr, l.budget(1000), "cluster.tick"); err != nil {
			return err
		}
		dur, covered := l.tr.timings(mark, "cluster.tick")
		l.add("cluster.tick_us", median(dur))
		l.add("cluster.backend_us", median(covered))
		l.add("cluster.self_us", median(diff(dur, covered)))
	}
	return nil
}

// appendRung appends each tick's records (the arrivals batch, then the
// step) straight to store.Log, from one writer or, for group commit, two
// concurrent writers sharing the committer.
func (l *ladder) appendRung(wl workload, policy string, opts store.Options, writers int) error {
	dir := filepath.Join(l.work, "append-"+policy)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	defer st.Close()
	slots := newSlots(l.seed, wl)
	logs := make([]*store.Log, len(slots))
	defer func() {
		for _, lg := range logs {
			if lg != nil {
				lg.Abort()
			}
		}
	}()
	open := func(s *slot) error {
		lg, err := st.Create(s.id)
		if err != nil {
			return err
		}
		logs[s.idx] = lg
		_, err = lg.AppendCreate(store.CreateCommand{Alg: "alg2", T: sessionT, G: sessionG})
		return err
	}
	for _, s := range slots {
		if err := open(s); err != nil {
			return err
		}
	}
	name := "store.append." + policy
	rr := make([]int, writers)
	write := func(w, n int, deadline time.Time) error {
		var mine []*slot
		for i := w; i < len(slots); i += writers {
			mine = append(mine, slots[i])
		}
		for i := 0; i < n && time.Now().Before(deadline); i++ {
			s := mine[rr[w]]
			rr[w] = (rr[w] + 1) % len(mine)
			switch s.next() {
			case opRead:
				continue
			case opRetire:
				if err := logs[s.idx].Close(); err != nil {
					return err
				}
				if err := st.Remove(s.id); err != nil {
					return err
				}
				s.recycle()
				if err := open(s); err != nil {
					return err
				}
				continue
			}
			win := s.window()
			recs := jobRecs(win, s.posted)
			id := l.tr.begin(name, -1)
			if len(recs) > 0 {
				if _, err := logs[s.idx].AppendArrivals(store.ArrivalsCommand{Jobs: recs}); err != nil {
					return err
				}
			}
			if _, err := logs[s.idx].AppendSteps(store.StepsCommand{K: stepsPerTick}); err != nil {
				return err
			}
			l.tr.end(id)
			s.ticked(len(win))
		}
		return nil
	}
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		var groups0, records0 uint64
		if c := st.Committer(); c != nil {
			groups0, records0 = c.Groups(), c.Records()
		}
		deadline := time.Now().Add(l.slice)
		errs := make([]error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = write(w, l.budget(1500), deadline)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		dur, _ := l.tr.timings(mark, name)
		l.add(name+"_us", median(dur))
		if c := st.Committer(); c != nil {
			l.add("store.group_size", float64(c.Records()-records0)/float64(max(c.Groups()-groups0, 1)))
		}
	}
	return nil
}

// persistRung is the session rung with the stream-durable daemon's store
// attached (fsync always, group commit). Sessions are first aged on an
// unsynced store, which takes seconds instead of minutes; a copy of that
// directory, unsettled, goes on under the durable settings. After each
// repetition's ticks the live directory is copied as a kill -9 would
// leave it, with WAL tails past the last snapshots and the group
// journal's records, and store.Open + server.NewManager over the copy is
// store.recover_ms. store.bytes_per_tick counts every byte the process
// writes per tick: WAL, group journal and snapshots.
func (l *ladder) persistRung(wl workload) error {
	aging := filepath.Join(l.work, "persist-aging")
	live := filepath.Join(l.work, "persist")
	crash := filepath.Join(l.work, "persist-crash")
	for _, dir := range []string{aging, live, crash} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	slots := newSlots(l.seed, wl)
	rr := 0
	st, m, err := openManager(aging, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		return err
	}
	err = l.warmUp(sessionTarget{m}, slots, &rr, math.MaxInt)
	if err == nil {
		err = copyDir(aging, live)
	}
	closeManager(st, m)
	if err != nil {
		return err
	}
	durable := store.Options{Fsync: store.FsyncAlways, GroupCommit: true}
	if st, m, err = openManager(live, durable); err != nil {
		return err
	}
	defer closeManager(st, m)
	t := sessionTarget{m}
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		w0, err := bytesWritten()
		if err != nil {
			return err
		}
		if err := l.drive(t, slots, &rr, l.budget(800), "server.persist.tick"); err != nil {
			return err
		}
		w1, err := bytesWritten()
		if err != nil {
			return err
		}
		dur, _ := l.tr.timings(mark, "server.persist.tick")
		l.add("server.persist.tick_us", median(dur))
		l.add("store.bytes_per_tick", float64(w1-w0)/float64(max(len(dur), 1)))

		if err := copyDir(live, crash); err != nil {
			return err
		}
		id := l.tr.root("store.recover")
		cst, cm, err := openManager(crash, durable)
		if err != nil {
			return err
		}
		l.add("store.recover_ms", float64(l.tr.end(id))/float64(time.Millisecond))
		l.checked++
		l.check(verifyClocks(cm.List(), slots))
		closeManager(cst, cm)
		if err := os.RemoveAll(crash); err != nil {
			return err
		}
	}
	return nil
}

// openManager opens the store at dir, recovering whatever it holds, and
// a session manager over it.
func openManager(dir string, opts store.Options) (*store.Store, *server.Manager, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := server.NewManager(server.Config{Store: st})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, m, nil
}

// closeManager settles every session, then stops the store.
func closeManager(st *store.Store, m *server.Manager) {
	if err := shutdown(m); err != nil {
		fmt.Fprintln(os.Stderr, "calibperf: shutting down a session manager:", err)
	}
	st.Close()
}

// bytesWritten is the process's write(2) byte count (/proc/self/io wchar).
func bytesWritten() (int64, error) {
	fh, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// coldBase keys the ladder's cold instances far past the op stream's.
const coldBase = 1 << 24

// dpRung solves fresh cold instances with the parallel DP the solve pool
// runs (offline.dp_ms).
func (l *ladder) dpRung() error {
	next := coldBase
	for rep := 0; rep < l.k; rep++ {
		deadline := time.Now().Add(l.slice)
		var times []float64
		var results []solveResult
		for i := 0; i < l.budget(12) && time.Now().Before(deadline); i++ {
			key := hotSetSize + next
			next++
			in, err := instanceOf(solveT, l.solve.instance(key))
			if err != nil {
				return err
			}
			in = in.Canonicalize()
			id := l.tr.root("offline.dp")
			total, _, _, err := offline.OptimalTotalCostParallel(in, solveG, 2)
			if err != nil {
				return err
			}
			times = append(times, float64(l.tr.end(id))/float64(time.Millisecond))
			results = append(results, solveResult{key: key, total: total})
		}
		l.add("offline.dp_ms", median(times))
		l.verifySolves(results)
	}
	return nil
}

func (l *ladder) verifySolves(results []solveResult) {
	l.checked += len(results)
	l.check(verifySolves(l.solve, results, l.expect))
}

// poolRung submits the solve-mix op stream to solve.Pool with its
// default options and waits for each result: cache hits
// (solve.hit_us), misses that run the DP (solve.miss_ms) and the share
// of hits (solve.hit_ratio).
func (l *ladder) poolRung() error {
	pool := solve.New(solve.Options{})
	defer pool.Close()
	submit := func(op solveOp) (bool, time.Duration, error) {
		in, err := instanceOf(solveT, op.jobs)
		if err != nil {
			return false, 0, err
		}
		req := solve.Request{Instance: in.Canonicalize(), Kind: solve.KindTotalCost, G: solveG}
		id := l.tr.root("solve.submit")
		h, err := pool.Submit(req)
		if err != nil {
			return false, 0, err
		}
		st, err := pool.Wait(context.Background(), h)
		d := l.tr.end(id)
		if err != nil {
			return false, 0, err
		}
		if st.Result == nil {
			return false, 0, fmt.Errorf("solve %s finished %s: %s", h, st.State, st.Err)
		}
		l.verifySolves([]solveResult{{key: op.key, total: st.Result.Total}})
		return st.CacheHit, d, nil
	}
	for h := 0; h < hotSetSize; h++ {
		if _, _, err := submit(solveOp{key: h, jobs: l.solve.hot[h]}); err != nil {
			return err
		}
	}
	k := 0
	n := l.budget(300)
	for rep := 0; rep < l.k; rep++ {
		deadline := time.Now().Add(l.slice)
		var hits, misses []float64
		// Past its budget a repetition runs on only until it has seen
		// both a hit and a miss, and never past four times the budget.
		for i := 0; i < 4*n; i++ {
			if (i >= n || time.Now().After(deadline)) && len(hits) > 0 && len(misses) > 0 {
				break
			}
			hit, d, err := submit(l.solve.op(k))
			k++
			if err != nil {
				return err
			}
			if hit {
				hits = append(hits, us(int64(d)))
			} else {
				misses = append(misses, float64(d)/float64(time.Millisecond))
			}
		}
		if len(hits) == 0 || len(misses) == 0 {
			return fmt.Errorf("solve pool rung saw %d hits and %d misses; both are needed", len(hits), len(misses))
		}
		l.add("solve.hit_us", median(hits))
		l.add("solve.miss_ms", median(misses))
		l.add("solve.hit_ratio", float64(len(hits))/float64(len(hits)+len(misses)))
	}
	return nil
}

// httpSolveRung submits hot instances to server.New over loopback and
// polls for the result (server.http.solve_us): every request is a cache
// hit, so the rung above solve.hit_us is HTTP+JSON.
func (l *ladder) httpSolveRung() error {
	srv, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	url, stop := loopback(srv, srv)
	defer stop()
	r := &solveRunner{c: newConn(url), stream: l.solve}
	defer r.c.client.CloseIdleConnections()
	for h := 0; h < hotSetSize; h++ {
		if err := r.solve(solveOp{key: h, jobs: l.solve.hot[h]}); err != nil {
			return err
		}
	}
	k := 0
	for rep := 0; rep < l.k; rep++ {
		mark := l.tr.mark()
		deadline := time.Now().Add(l.slice)
		for i := 0; i < l.budget(300) && time.Now().Before(deadline); k++ {
			op := l.solve.op(k)
			if op.key >= hotSetSize {
				continue
			}
			i++
			id := l.tr.root("server.http.solve")
			err := r.solve(op)
			l.tr.end(id)
			if err != nil {
				return err
			}
		}
		dur, _ := l.tr.timings(mark, "server.http.solve")
		l.add("server.http.solve_us", median(dur))
	}
	l.verifySolves(r.results)
	return nil
}

// writeSpans writes every recorded span as JSON.
func (t *tracer) writeSpans(path string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(struct {
		Seed  uint64 `json:"seed"`
		Spans []span `json:"spans"`
	}{seed, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}
