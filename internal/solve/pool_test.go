package solve

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/trace"
)

// recorder counts pool events behind its own lock so tests can read
// concurrently with workers.
type recorder struct {
	mu     sync.Mutex
	counts map[Event]int
}

func newRecorder() *recorder { return &recorder{counts: make(map[Event]int)} }

func (r *recorder) on(ev Event) {
	r.mu.Lock()
	r.counts[ev]++
	r.mu.Unlock()
}

func (r *recorder) get(ev Event) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[ev]
}

func testInstance(rng *rand.Rand, maxN, maxRel, maxW int, maxT int64) *core.Instance {
	n := 1 + rng.IntN(maxN)
	releases := make([]int64, n)
	weights := make([]int64, n)
	for i := range releases {
		releases[i] = int64(rng.IntN(maxRel))
		weights[i] = 1 + int64(rng.IntN(maxW))
	}
	t := int64(1 + rng.Int64N(maxT))
	return core.MustInstance(1, t, releases, weights).Canonicalize()
}

func waitDone(t *testing.T, p *Pool, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := p.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// TestPoolDifferential is the tentpole correctness gate: every request
// kind, served through the pool (parallel DP + cache + dedup), must be
// byte-identical to the one-worker solver — flow values, bestK, and the
// full schedule. Run under -race in CI.
func TestPoolDifferential(t *testing.T) {
	p := New(Options{Workers: 4, SolveWorkers: 2})
	defer p.Close()
	rng := rand.New(rand.NewPCG(20, 26))
	for trial := 0; trial < 60; trial++ {
		in := testInstance(rng, 9, 25, 5, 5)
		k := in.N()
		g := int64(rng.IntN(30))

		wantFlow, err := offline.OptimalFlow(in, k)
		if err != nil {
			t.Fatal(err)
		}
		wantSweep, err := offline.BudgetSweep(in, k)
		if err != nil {
			t.Fatal(err)
		}
		wantTotal, wantK, wantSched, err := offline.OptimalTotalCost(in, g)
		if err != nil {
			t.Fatal(err)
		}

		ids := make([]string, 3)
		for i, req := range []Request{
			{Instance: in, Kind: KindFlow, K: k},
			{Instance: in, Kind: KindSweep, K: k},
			{Instance: in, Kind: KindTotalCost, G: g},
		} {
			id, err := p.Submit(req)
			if err != nil {
				t.Fatalf("trial %d: submit %s: %v", trial, req.Kind, err)
			}
			ids[i] = id
		}

		flow := waitDone(t, p, ids[0])
		if flow.State != StateDone || flow.Result.Flow != wantFlow.Flow ||
			!reflect.DeepEqual(flow.Result.Schedule, wantFlow.Schedule) {
			t.Fatalf("trial %d: pooled flow %+v != sequential %+v", trial, flow, wantFlow)
		}
		sweep := waitDone(t, p, ids[1])
		if sweep.State != StateDone || !reflect.DeepEqual(sweep.Result.Flows, wantSweep) {
			t.Fatalf("trial %d: pooled sweep %+v != sequential %v", trial, sweep, wantSweep)
		}
		total := waitDone(t, p, ids[2])
		if total.State != StateDone || total.Result.Total != wantTotal ||
			total.Result.BestK != wantK || !reflect.DeepEqual(total.Result.Schedule, wantSched) {
			t.Fatalf("trial %d: pooled total %+v != sequential (%d, %d)", trial, total, wantTotal, wantK)
		}
	}
}

func TestCacheHitServesIdenticalResult(t *testing.T) {
	rec := newRecorder()
	p := New(Options{Workers: 1, OnEvent: rec.on})
	defer p.Close()
	in := core.MustInstance(1, 4, []int64{0, 1, 2, 7}, []int64{3, 1, 2, 5})
	req := Request{Instance: in, Kind: KindTotalCost, G: 5}

	id1, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, p, id1)
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first solve: %+v", st1)
	}

	id2, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, p, id2)
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("second solve not a cache hit: %+v", st2)
	}
	if st2.Result != st1.Result {
		t.Error("cache hit did not share the stored result")
	}
	if rec.get(EvCacheHit) != 1 || rec.get(EvRun) != 1 {
		t.Errorf("hits = %d (want 1), runs = %d (want 1)", rec.get(EvCacheHit), rec.get(EvRun))
	}
}

// TestCacheEvictionOrder pins the S3-FIFO eviction order through the
// pool at capacity 2 (one probation slot, one ghost): a new key is
// evicted from probation unless it was read there, an evicted key
// re-added comes back into the main queue, main evicts in FIFO order,
// and a one-shot newcomer leaves again without displacing main.
func TestCacheEvictionOrder(t *testing.T) {
	rec := newRecorder()
	p := New(Options{Workers: 1, CacheSize: 2, OnEvent: rec.on})
	defer p.Close()
	in := core.MustInstance(1, 3, []int64{0, 2, 5}, []int64{1, 2, 1})
	reqG := func(g int64) Request { return Request{Instance: in, Kind: KindTotalCost, G: g} }

	submit := func(g int64) Status {
		id, err := p.Submit(reqG(g))
		if err != nil {
			t.Fatalf("submit G=%d: %v", g, err)
		}
		return waitDone(t, p, id)
	}
	steps := []struct {
		g         int64
		hit       bool
		evictions int
		why       string
	}{
		{1, false, 0, "A enters probation"},
		{2, false, 0, "B enters probation"},
		{3, false, 1, "C enters probation and evicts the unread A, which becomes a ghost"},
		{2, true, 1, "B is read in probation"},
		{1, false, 2, "ghost A enters main; B moves on to main, and the unread C is evicted"},
		{3, false, 3, "ghost C enters main and evicts main's oldest, A"},
		{2, true, 3, "B stayed in main"},
		{1, false, 4, "A is no ghost any more: it enters probation and is evicted at once"},
		{3, true, 4, "C stayed in main"},
		{2, true, 4, "B stayed in main"},
	}
	for i, st := range steps {
		if got := submit(st.g); got.CacheHit != st.hit {
			t.Fatalf("step %d (%s): cache hit %v, want %v", i, st.why, got.CacheHit, st.hit)
		}
		if got := rec.get(EvCacheEvicted); got != st.evictions {
			t.Fatalf("step %d (%s): %d evictions, want %d", i, st.why, got, st.evictions)
		}
	}
}

// TestCacheKeysDistinguishParameters guards against hash collisions
// between near-identical requests: same job set, different G (or K, or
// kind) must occupy distinct cache entries.
func TestCacheKeysDistinguishParameters(t *testing.T) {
	in := core.MustInstance(1, 3, []int64{0, 2, 5}, []int64{1, 2, 1})
	keys := map[string]string{
		"G=3":   requestKey(Request{Instance: in, Kind: KindTotalCost, G: 3}),
		"G=4":   requestKey(Request{Instance: in, Kind: KindTotalCost, G: 4}),
		"K=2":   requestKey(Request{Instance: in, Kind: KindFlow, K: 2}),
		"sweep": requestKey(Request{Instance: in, Kind: KindSweep, K: 2}),
	}
	seen := make(map[string]string)
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %s and %s share cache key %s", name, prev, k)
		}
		seen[k] = name
	}

	rec := newRecorder()
	p := New(Options{Workers: 1, OnEvent: rec.on})
	defer p.Close()
	idA, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := waitDone(t, p, idA)
	idB, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := waitDone(t, p, idB)
	if b.CacheHit {
		t.Fatal("G=4 answered from the G=3 cache entry")
	}
	if a.Result == b.Result {
		t.Fatal("distinct requests share a result")
	}
	if rec.get(EvCacheHit) != 0 {
		t.Fatalf("cache hits = %d, want 0", rec.get(EvCacheHit))
	}
}

// TestSingleflightDedup holds a solve open and piles identical requests
// on top: all of them must attach to the single in-flight run (one
// EvRun), finish with the same result pointer, and be flagged Shared.
// Run under -race in CI.
func TestSingleflightDedup(t *testing.T) {
	rec := newRecorder()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	p := New(Options{
		Workers: 2,
		OnEvent: rec.on,
		TestHookBeforeRun: func(string) {
			once.Do(func() { close(started) })
			<-gate
		},
	})
	defer p.Close()
	in := core.MustInstance(1, 4, []int64{0, 1, 2, 6, 9}, []int64{2, 1, 3, 1, 2})
	req := Request{Instance: in, Kind: KindSweep, K: 5}

	first, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the DP is now running and held open

	const extra = 12
	ids := make([]string, 0, extra)
	var wg sync.WaitGroup
	var idsMu sync.Mutex
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := p.Submit(req)
			if err != nil {
				t.Errorf("dedup submit: %v", err)
				return
			}
			idsMu.Lock()
			ids = append(ids, id)
			idsMu.Unlock()
		}()
	}
	wg.Wait()
	close(gate)

	want := waitDone(t, p, first)
	if want.State != StateDone {
		t.Fatalf("primary solve failed: %+v", want)
	}
	for _, id := range ids {
		st := waitDone(t, p, id)
		if st.State != StateDone || !st.Shared {
			t.Fatalf("attached handle %s: %+v", id, st)
		}
		if st.Result != want.Result {
			t.Fatalf("handle %s got a different result object", id)
		}
	}
	if runs := rec.get(EvRun); runs != 1 {
		t.Errorf("DP ran %d times for one logical request, want 1", runs)
	}
	if shared := rec.get(EvDedupShared); shared != extra {
		t.Errorf("dedup shares = %d, want %d", shared, extra)
	}
}

// TestQueueBackpressure fills the single-worker, depth-1 queue and
// expects the next distinct request to bounce with ErrQueueFull.
func TestQueueBackpressure(t *testing.T) {
	rec := newRecorder()
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	p := New(Options{
		Workers:    1,
		QueueDepth: 1,
		OnEvent:    rec.on,
		TestHookBeforeRun: func(string) {
			once.Do(func() { close(started) })
			<-gate
		},
	})
	defer p.Close()
	in := core.MustInstance(1, 3, []int64{0, 2, 5}, []int64{1, 2, 1})
	reqG := func(g int64) Request { return Request{Instance: in, Kind: KindTotalCost, G: g} }

	busy, err := p.Submit(reqG(1)) // occupies the worker
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := p.Submit(reqG(2)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(reqG(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	if rec.get(EvRejected) != 1 {
		t.Errorf("rejections = %d, want 1", rec.get(EvRejected))
	}
	// Identical requests never consume queue slots: they dedup onto the
	// queued flight even while the queue is full.
	dup, err := p.Submit(reqG(2))
	if err != nil {
		t.Fatalf("dedup submit during backpressure: %v", err)
	}
	close(gate)
	for _, id := range []string{busy, queued, dup} {
		if st := waitDone(t, p, id); st.State != StateDone {
			t.Fatalf("handle %s: %+v", id, st)
		}
	}
}

// TestFailedSolveIsCached verifies that deterministic solver errors
// (infeasible budget) surface as failed handles and are cached like any
// other outcome.
func TestFailedSolveIsCached(t *testing.T) {
	rec := newRecorder()
	p := New(Options{Workers: 1, OnEvent: rec.on})
	defer p.Close()
	// 3 jobs, T=1, budget 1: at most 1 slot, infeasible.
	in := core.MustInstance(1, 1, []int64{0, 1, 2}, []int64{1, 1, 1})
	req := Request{Instance: in, Kind: KindFlow, K: 1}

	id1, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, p, id1)
	if st1.State != StateFailed || st1.Err == "" {
		t.Fatalf("infeasible solve: %+v", st1)
	}
	id2, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, p, id2)
	if !st2.CacheHit || st2.State != StateFailed || st2.Err != st1.Err {
		t.Fatalf("cached failure: %+v", st2)
	}
	if rec.get(EvRun) != 1 {
		t.Errorf("runs = %d, want 1", rec.get(EvRun))
	}
}

func TestSubmitValidation(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	in := core.MustInstance(1, 3, []int64{0, 2}, []int64{1, 1})
	cases := []Request{
		{Instance: nil, Kind: KindFlow, K: 1},
		{Instance: in, Kind: "nope", K: 1},
		{Instance: in, Kind: KindFlow, K: -1},
		{Instance: in, Kind: KindSweep, K: -2},
		{Instance: in, Kind: KindSweep, K: 3},
		{Instance: in, Kind: KindSweep, K: 1 << 62},
		{Instance: in, Kind: KindTotalCost, G: -1},
	}
	for i, req := range cases {
		if _, err := p.Submit(req); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: err = %v, want ErrInvalid", i, err)
		}
	}
	// A sweep up to n budgets is the largest one accepted.
	if id, err := p.Submit(Request{Instance: in, Kind: KindSweep, K: in.N()}); err != nil {
		t.Errorf("sweep with K = n: %v", err)
	} else if st := waitDone(t, p, id); st.State != StateDone || len(st.Result.Flows) != in.N()+1 {
		t.Errorf("sweep with K = n: %+v, want %d rows", st, in.N()+1)
	}
	big := make([]int64, 20)
	for i := range big {
		big[i] = int64(i)
	}
	weights := make([]int64, 20)
	for i := range weights {
		weights[i] = 1
	}
	small := New(Options{Workers: 1, MaxJobs: 10})
	defer small.Close()
	if _, err := small.Submit(Request{
		Instance: core.MustInstance(1, 3, big, weights), Kind: KindFlow, K: 2,
	}); !errors.Is(err, ErrInvalid) {
		t.Errorf("oversized instance: err = %v, want ErrInvalid", err)
	}
}

func TestCloseFailsPendingAndRejectsNew(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	p := New(Options{
		Workers:    1,
		QueueDepth: 4,
		TestHookBeforeRun: func(string) {
			once.Do(func() { close(started) })
			<-gate
		},
	})
	in := core.MustInstance(1, 3, []int64{0, 2, 5}, []int64{1, 2, 1})
	running, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pending, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Close blocks on the held-open worker; release it shortly after.
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	p.Close()
	if _, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	st, err := p.Get(pending)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("pending handle after close: %+v", st)
	}
	// The running flight finished (gate released before workers drained),
	// so its handle must carry a real outcome, not ErrClosed.
	if st, err := p.Get(running); err != nil || st.State != StateDone {
		t.Fatalf("running handle after close: %+v, %v", st, err)
	}
	p.Close() // idempotent
}

func TestHandleRetentionBound(t *testing.T) {
	p := New(Options{Workers: 1, MaxHandles: 2, CacheSize: -1})
	defer p.Close()
	in := core.MustInstance(1, 3, []int64{0, 2, 5}, []int64{1, 2, 1})
	var ids []string
	for g := int64(1); g <= 3; g++ {
		id, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: g})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, p, id)
		ids = append(ids, id)
	}
	if _, err := p.Get(ids[0]); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("oldest finished handle still known: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := p.Get(id); err != nil {
			t.Errorf("recent handle %s forgotten: %v", id, err)
		}
	}
	if _, err := p.Get("solve-999"); !errors.Is(err, ErrUnknownHandle) {
		t.Error("bogus handle id resolved")
	}
}

// TestPoolSpans verifies the solve plane's phase attribution: a traced
// submit lands solve-queue and solve-dp spans under the submitting
// request's trace, and a repeat submit lands a cache-hit span instead.
func TestPoolSpans(t *testing.T) {
	spans := trace.NewSpanStore(16, 0, "")
	p := New(Options{Workers: 1, SolveWorkers: 1, Spans: spans})
	defer p.Close()
	rng := rand.New(rand.NewPCG(7, 7))
	in := testInstance(rng, 6, 10, 3, 4)

	sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	id, err := p.Submit(Request{Instance: in, Kind: KindFlow, K: in.N(), Span: sc})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, p, id)

	phases := func() map[string]int {
		got := make(map[string]int)
		for _, sp := range spans.Trace(sc.TraceID) {
			got[sp.Phase]++
			if sp.Parent != sc.SpanID {
				t.Errorf("span %s not parented to submitter: %+v", sp.Phase, sp)
			}
		}
		return got
	}
	got := phases()
	if got["solve-queue"] != 1 || got["solve-dp"] != 1 {
		t.Fatalf("phases after miss: %v", got)
	}

	// Identical request: cache hit, no new pool phases.
	id2, err := p.Submit(Request{Instance: in, Kind: KindFlow, K: in.N(), Span: sc})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, p, id2)
	if !st.CacheHit {
		t.Fatalf("second submit not a cache hit: %+v", st)
	}
	got = phases()
	if got["cache-hit"] != 1 || got["solve-dp"] != 1 {
		t.Fatalf("phases after hit: %v", got)
	}

	// Untraced submits must not reach the store.
	before := spans.Stats().SpansAdded
	id3, err := p.Submit(Request{Instance: in, Kind: KindFlow, K: in.N()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, p, id3)
	if after := spans.Stats().SpansAdded; after != before {
		t.Fatalf("untraced submit added spans: %d -> %d", before, after)
	}
}

// TestPanickingSolveFailsItsOwnHandles drives a DP run that panics: every
// handle attached to the flight, the submitter's and a deduplicated one,
// fails with ErrInternal; the pool settles its running count and flight
// table, counts the panic, caches nothing, and its one worker serves the
// next requests, an identical one included.
func TestPanickingSolveFailsItsOwnHandles(t *testing.T) {
	rec := newRecorder()
	started, gate := make(chan struct{}), make(chan struct{})
	var runs atomic.Int32
	p := New(Options{
		Workers: 1,
		OnEvent: rec.on,
		TestHookBeforeRun: func(string) {
			if runs.Add(1) == 1 {
				close(started)
				<-gate
				panic("injected solve failure")
			}
		},
	})
	defer p.Close()
	in := core.MustInstance(1, 4, []int64{0, 1, 2, 6, 9}, []int64{2, 1, 3, 1, 2})
	req := Request{Instance: in, Kind: KindTotalCost, G: 5}

	first, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	shared, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	for _, id := range []string{first, shared} {
		st, err := p.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed || !st.Internal || !strings.Contains(st.Err, "injected solve failure") {
			t.Fatalf("handle %s: %+v, want an internal failure naming the panic", id, st)
		}
	}
	p.mu.Lock()
	running, flights, cached := p.running, len(p.flights), p.cache.len()
	p.mu.Unlock()
	if running != 0 || flights != 0 || cached != 0 {
		t.Fatalf("after the panic: running %d, flights %d, cache entries %d; want 0, 0, 0", running, flights, cached)
	}
	if got := rec.get(EvPanicked); got != 1 {
		t.Fatalf("EvPanicked = %d, want 1", got)
	}

	want, wantK, _, err := offline.OptimalTotalCost(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, p, again)
	if st.State != StateDone || st.Shared || st.CacheHit || st.Result.Total != want || st.Result.BestK != wantK {
		t.Fatalf("identical request after the panic: %+v, want a fresh run with total %d", st, want)
	}
	other, err := p.Submit(Request{Instance: in, Kind: KindFlow, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, p, other); st.State != StateDone {
		t.Fatalf("other request after the panic: %+v", st)
	}
}

// TestOverflowingSolveFailsItsOwnHandle sends an instance whose exact
// arithmetic overflows inside the DP's parallel table fill (w*(r+1) =
// 2^32 * 2^31). The panic starts on a DP worker goroutine, not the pool
// worker, and must still fail only this request.
func TestOverflowingSolveFailsItsOwnHandle(t *testing.T) {
	p := New(Options{Workers: 1, SolveWorkers: 2})
	defer p.Close()
	in := core.MustInstance(1, 1, []int64{0, 1<<31 - 1}, []int64{1, 1 << 32}).Canonicalize()
	id, err := p.Submit(Request{Instance: in, Kind: KindTotalCost, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, p, id); st.State != StateFailed || !st.Internal || !strings.Contains(st.Err, "overflow") {
		t.Fatalf("overflowing solve: %+v, want an internal failure naming the overflow", st)
	}
	small := core.MustInstance(1, 2, []int64{0, 3}, []int64{1, 2})
	next, err := p.Submit(Request{Instance: small, Kind: KindTotalCost, G: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, p, next); st.State != StateDone {
		t.Fatalf("solve after the overflow: %+v", st)
	}
}
