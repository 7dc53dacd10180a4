package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"calibsched/internal/core"
	"calibsched/internal/offline"
	"calibsched/internal/trace"
)

// Event identifies a pool occurrence reported through Options.OnEvent.
// The callback runs with the pool lock held and must not call back into
// the pool; incrementing an expvar counter is the intended use.
type Event int

const (
	// EvSubmitted counts every accepted Submit call.
	EvSubmitted Event = iota
	// EvRejected counts Submit calls refused with ErrQueueFull.
	EvRejected
	// EvCacheHit counts submits answered from the result cache.
	EvCacheHit
	// EvCacheMiss counts submits that had to consult the queue.
	EvCacheMiss
	// EvCacheEvicted counts evictions from the result cache.
	EvCacheEvicted
	// EvDedupShared counts submits that attached to an identical solve
	// already queued or running instead of starting their own.
	EvDedupShared
	// EvRun counts DP executions actually performed by workers.
	EvRun
	// EvCompleted counts handles finished with a result.
	EvCompleted
	// EvFailed counts handles finished with an error.
	EvFailed
)

// State is a handle's lifecycle phase.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Request describes one exact solve.
type Request struct {
	Instance *core.Instance
	Kind     Kind
	// K is the calibration budget (KindFlow) or the largest budget of
	// the sweep (KindSweep). Ignored by KindTotalCost.
	K int
	// G is the per-calibration cost for KindTotalCost.
	G int64
	// Span, when valid, attributes the solve's pool phases
	// (solve-queue/solve-dp/cache-hit) to the submitting request's
	// trace. It is deliberately excluded from the request cache key:
	// identical solves from different traces share one result. When
	// deduplicated submits attach to an in-flight run, only the first
	// submitter's span context is attributed.
	Span trace.SpanContext
}

// Result is the outcome of a successful solve. Which fields are set
// depends on the request kind. Results may be shared between handles
// (cache hits and deduplicated solves return the same pointers), so
// callers must treat the schedule as read-only.
type Result struct {
	Kind Kind
	// Flow is the optimum for KindFlow.
	Flow int64
	// Flows[k] is the optimum under budget k, for KindSweep
	// (offline.Unschedulable where the budget is infeasible).
	Flows []int64
	// Total and BestK are the KindTotalCost optimum and its budget.
	Total int64
	BestK int
	// Schedule realizes the optimum (KindFlow and KindTotalCost).
	Schedule *core.Schedule
	// Instance is the solved instance, for rendering the schedule
	// against job releases and weights. Read-only, like Schedule.
	Instance *core.Instance
}

// Status is a point-in-time snapshot of a handle.
type Status struct {
	ID       string
	State    State
	Result   *Result
	Err      string
	CacheHit bool
	// Shared marks handles that attached to another request's DP run.
	Shared   bool
	Created  time.Time
	Finished time.Time
}

// Snapshot reports pool gauges for the metrics plane.
type Snapshot struct {
	QueueDepth int
	Running    int
	CacheLen   int
	Handles    int
}

// Options configures a Pool; zero values take the documented defaults.
type Options struct {
	// Workers is the number of concurrent DP runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued (not yet running) solves; a full queue
	// rejects with ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize is the S3-FIFO result-cache capacity in entries
	// (default 128; negative disables caching).
	CacheSize int
	// SolveWorkers is the intra-solve parallelism handed to the
	// offline.*Parallel solvers (default GOMAXPROCS).
	SolveWorkers int
	// MaxJobs rejects instances larger than this at Submit
	// (default offline.MaxParallelJobs).
	MaxJobs int
	// MaxHandles bounds retained finished handles; the oldest finished
	// handle is forgotten first (default 1024).
	MaxHandles int
	// OnEvent, when non-nil, observes pool events (see Event).
	OnEvent func(Event)
	// Spans, when non-nil, receives solve-queue/solve-dp/cache-hit
	// phase spans for submits that carry a valid Request.Span.
	Spans *trace.SpanStore

	// TestHookBeforeRun, when non-nil, runs in the worker goroutine right
	// before a DP executes. Tests use it to hold solves open.
	TestHookBeforeRun func(key string)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 128
	}
	if o.SolveWorkers <= 0 {
		o.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = offline.MaxParallelJobs
	}
	if o.MaxHandles <= 0 {
		o.MaxHandles = 1024
	}
	return o
}

var (
	// ErrQueueFull is returned by Submit when the pool queue is at
	// capacity; callers should retry later (HTTP maps it to 429).
	ErrQueueFull = errors.New("solve: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("solve: pool closed")
	// ErrUnknownHandle is returned by Get/Wait for unknown or already
	// forgotten handle IDs.
	ErrUnknownHandle = errors.New("solve: unknown handle")
	// ErrInvalid wraps request validation failures.
	ErrInvalid = errors.New("solve: invalid request")
)

// outcome is what a finished solve leaves behind (and what the cache
// stores): a result or an error, never both.
type outcome struct {
	res *Result
	err error
}

// flight is one pending or running DP execution plus every handle
// attached to it.
type flight struct {
	key      string
	req      Request
	ids      []string
	running  bool
	enqueued time.Time
}

type handle struct {
	id       string
	state    State
	res      *Result
	err      error
	cacheHit bool
	shared   bool
	created  time.Time
	finished time.Time
	done     chan struct{}
}

// Pool is a bounded offline-solve service. Create with New, stop with
// Close. All methods are safe for concurrent use.
type Pool struct {
	opts  Options
	clock func() time.Time

	mu       sync.Mutex
	queue    chan *flight
	stop     chan struct{}
	wg       sync.WaitGroup
	cache    *resultCache
	flights  map[string]*flight
	handles  map[string]*handle
	finished []string // finished handle ids, oldest first
	running  int
	seq      int64
	closed   bool
}

// New starts a pool with opts defaults applied.
func New(opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		opts:    opts,
		clock:   time.Now,
		queue:   make(chan *flight, opts.QueueDepth),
		stop:    make(chan struct{}),
		cache:   newCache(opts.CacheSize),
		flights: make(map[string]*flight),
		handles: make(map[string]*handle),
	}
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) event(ev Event) {
	if p.opts.OnEvent != nil {
		p.opts.OnEvent(ev)
	}
}

func validate(req Request, maxJobs int) error {
	if req.Instance == nil {
		return fmt.Errorf("%w: nil instance", ErrInvalid)
	}
	if !req.Kind.valid() {
		return fmt.Errorf("%w: unknown kind %q", ErrInvalid, req.Kind)
	}
	if n := req.Instance.N(); n > maxJobs {
		return fmt.Errorf("%w: %d jobs exceed the pool limit %d", ErrInvalid, n, maxJobs)
	}
	switch req.Kind {
	case KindFlow, KindSweep:
		if req.K < 0 {
			return fmt.Errorf("%w: negative budget %d", ErrInvalid, req.K)
		}
	case KindTotalCost:
		if req.G < 0 {
			return fmt.Errorf("%w: negative calibration cost %d", ErrInvalid, req.G)
		}
	}
	return nil
}

// Submit enqueues a solve and returns its handle ID. Identical requests
// are answered from the cache or attached to an in-flight run; a full
// queue returns ErrQueueFull.
func (p *Pool) Submit(req Request) (string, error) {
	if err := validate(req, p.opts.MaxJobs); err != nil {
		return "", err
	}
	key := requestKey(req)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", ErrClosed
	}
	p.event(EvSubmitted)

	if out, ok := p.cache.get(key); ok {
		p.event(EvCacheHit)
		h := p.newHandleLocked()
		h.cacheHit = true
		p.finishHandleLocked(h, out)
		// A cache hit answered synchronously: a zero-length phase marks
		// the moment (SpanStore.Add is pure memory, safe under p.mu).
		p.opts.Spans.RecordPhase(req.Span, trace.PhaseCacheHit, p.clock(), 0, nil)
		return h.id, nil
	}
	p.event(EvCacheMiss)

	if fl, ok := p.flights[key]; ok {
		p.event(EvDedupShared)
		h := p.newHandleLocked()
		h.shared = true
		if fl.running {
			h.state = StateRunning
		}
		fl.ids = append(fl.ids, h.id)
		return h.id, nil
	}

	fl := &flight{key: key, req: req, enqueued: p.clock()}
	select {
	case p.queue <- fl:
	default:
		p.event(EvRejected)
		return "", ErrQueueFull
	}
	h := p.newHandleLocked()
	fl.ids = append(fl.ids, h.id)
	p.flights[key] = fl
	return h.id, nil
}

// newHandleLocked allocates a queued handle. Caller holds p.mu.
func (p *Pool) newHandleLocked() *handle {
	p.seq++
	h := &handle{
		id:      fmt.Sprintf("solve-%d", p.seq),
		state:   StateQueued,
		created: p.clock(),
		done:    make(chan struct{}),
	}
	p.handles[h.id] = h
	return h
}

// finishHandleLocked moves a handle to its terminal state and enforces
// the finished-handle retention bound. Caller holds p.mu.
func (p *Pool) finishHandleLocked(h *handle, out outcome) {
	if out.err != nil {
		h.state = StateFailed
		h.err = out.err
		p.event(EvFailed)
	} else {
		h.state = StateDone
		h.res = out.res
		p.event(EvCompleted)
	}
	h.finished = p.clock()
	close(h.done)
	p.finished = append(p.finished, h.id)
	for len(p.finished) > p.opts.MaxHandles {
		oldest := p.finished[0]
		p.finished = p.finished[1:]
		delete(p.handles, oldest)
	}
}

// Get returns the handle's current status.
func (p *Pool) Get(id string) (Status, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.handles[id]
	if !ok {
		return Status{}, ErrUnknownHandle
	}
	return h.statusLocked(), nil
}

func (h *handle) statusLocked() Status {
	st := Status{
		ID:       h.id,
		State:    h.state,
		Result:   h.res,
		CacheHit: h.cacheHit,
		Shared:   h.shared,
		Created:  h.created,
		Finished: h.finished,
	}
	if h.err != nil {
		st.Err = h.err.Error()
	}
	return st
}

// Wait blocks until the handle reaches a terminal state or the context
// is done, then returns its status.
func (p *Pool) Wait(ctx context.Context, id string) (Status, error) {
	p.mu.Lock()
	h, ok := p.handles[id]
	p.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownHandle
	}
	select {
	case <-h.done:
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
	return p.Get(id)
}

// Stats reports current pool gauges.
func (p *Pool) Stats() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{
		QueueDepth: len(p.queue),
		Running:    p.running,
		CacheLen:   p.cache.len(),
		Handles:    len(p.handles),
	}
}

// Close stops the workers and fails every handle that has not finished.
// Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.handles {
		if h.state == StateQueued || h.state == StateRunning {
			p.finishHandleLocked(h, outcome{err: ErrClosed})
		}
	}
	p.flights = make(map[string]*flight)
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		// Check stop first so a closed pool never starts new flights —
		// a bare two-case select picks randomly when both are ready,
		// which would make shutdown behavior nondeterministic.
		select {
		case <-p.stop:
			return
		default:
		}
		select {
		case <-p.stop:
			return
		case fl := <-p.queue:
			p.run(fl)
		}
	}
}

func (p *Pool) run(fl *flight) {
	p.mu.Lock()
	fl.running = true
	p.running++
	for _, id := range fl.ids {
		if h := p.handles[id]; h != nil {
			h.state = StateRunning
		}
	}
	p.event(EvRun)
	p.mu.Unlock()

	if p.opts.TestHookBeforeRun != nil {
		p.opts.TestHookBeforeRun(fl.key)
	}
	start := p.clock()
	p.opts.Spans.RecordPhase(fl.req.Span, trace.PhaseSolveQueue, fl.enqueued, start.Sub(fl.enqueued), nil)
	out := execute(fl.req, p.opts.SolveWorkers)
	p.opts.Spans.RecordPhase(fl.req.Span, trace.PhaseSolveDP, start, p.clock().Sub(start), nil)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.running--
	if evicted, ok := p.cache.add(fl.key, out); ok {
		p.event(EvCacheEvicted)
		_ = evicted
	}
	delete(p.flights, fl.key)
	for _, id := range fl.ids {
		if h := p.handles[id]; h != nil {
			p.finishHandleLocked(h, out)
		}
	}
}

// execute runs the DP for one request using the parallel solvers.
func execute(req Request, workers int) outcome {
	switch req.Kind {
	case KindFlow:
		res, err := offline.OptimalFlowParallel(req.Instance, req.K, workers)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{res: &Result{Kind: req.Kind, Flow: res.Flow, Schedule: res.Schedule, Instance: req.Instance}}
	case KindSweep:
		flows, err := offline.BudgetSweepParallel(req.Instance, req.K, workers)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{res: &Result{Kind: req.Kind, Flows: flows, Instance: req.Instance}}
	case KindTotalCost:
		total, bestK, sched, err := offline.OptimalTotalCostParallel(req.Instance, req.G, workers)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{res: &Result{Kind: req.Kind, Total: total, BestK: bestK, Schedule: sched, Instance: req.Instance}}
	default:
		return outcome{err: fmt.Errorf("%w: unknown kind %q", ErrInvalid, req.Kind)}
	}
}
