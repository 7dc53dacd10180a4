package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"calibsched/internal/online"
	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
)

// Config tunes the serving layer. The zero value is usable: every field
// falls back to the listed default.
type Config struct {
	// MaxSessions bounds concurrently live sessions (default 1024).
	// Session creation beyond the bound is refused with a 429.
	MaxSessions int
	// MaxBuffer bounds each session's arrival buffer (default 4096).
	// Arrivals beyond the bound are refused with a 429 + Retry-After.
	MaxBuffer int
	// MaxStepBatch bounds the steps one request may simulate (default
	// 100000), keeping response sizes and worker occupancy bounded.
	MaxStepBatch int64
	// IdleTTL evicts sessions with no traffic for this long (default
	// 10m); zero or negative disables eviction.
	IdleTTL time.Duration
	// JanitorInterval overrides the eviction sweep cadence (default
	// IdleTTL/4, clamped to [10ms, 30s]); tests shorten it.
	JanitorInterval time.Duration
	// TraceRing bounds each session's decision-event ring buffer served
	// at GET /v1/sessions/{id}/trace (default 1024). The ring grows on
	// demand up to the bound; when full, the oldest events are dropped
	// and the drop count is reported.
	TraceRing int
	// SpanStoreSize bounds the node's request-trace store (in traces)
	// served at GET /v1/traces (default 512). Negative disables span
	// recording entirely: every /v1 request then runs the nil-recorder
	// fast path.
	SpanStoreSize int
	// SlowTraceThreshold tail-retains traces containing a span at least
	// this slow — they survive FIFO eviction from the span store until
	// only retained traces remain. Zero disables retention (pure FIFO).
	SlowTraceThreshold time.Duration
	// Logger receives one structured record per request (method, path,
	// status, latency, plus handler-attached attrs such as the session
	// id). Default: discard.
	Logger *slog.Logger
	// Store enables durable session persistence: each session gets a
	// write-ahead log + snapshot directory under the store root, and the
	// manager replays everything on disk at boot before accepting
	// traffic. Default nil: sessions are in-memory only.
	Store *store.Store
	// SnapshotEvery is the number of WAL records appended between
	// snapshots (default 256); each snapshot truncates the log behind it,
	// bounding both recovery replay time and disk growth.
	SnapshotEvery int
	// SolveWorkers is the offline-solve pool's concurrent DP runs
	// (default GOMAXPROCS); SolveQueueDepth bounds queued solves before
	// POST /v1/solve answers 429 (default 64); SolveCacheSize is the
	// S3-FIFO result-cache capacity in entries (default 128, negative
	// disables); SolveMaxJobs rejects larger instances with a 400
	// (default 256). The pool itself applies these defaults — see
	// solve.Options.
	SolveWorkers    int
	SolveQueueDepth int
	SolveCacheSize  int
	SolveMaxJobs    int

	// solveTestHook is forwarded to the pool's TestHookBeforeRun so
	// package-local tests can hold solves open; unexported on purpose.
	solveTestHook func(key string)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxBuffer == 0 {
		c.MaxBuffer = 4096
	}
	if c.MaxStepBatch == 0 {
		c.MaxStepBatch = 100_000
	}
	if c.TraceRing == 0 {
		c.TraceRing = 1024
	}
	if c.SpanStoreSize == 0 {
		c.SpanStoreSize = 512
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.JanitorInterval == 0 && c.IdleTTL > 0 {
		c.JanitorInterval = c.IdleTTL / 4
		if c.JanitorInterval < 10*time.Millisecond {
			c.JanitorInterval = 10 * time.Millisecond
		}
		if c.JanitorInterval > 30*time.Second {
			c.JanitorInterval = 30 * time.Second
		}
	}
	return c
}

// Manager owns the session table: creation, lookup, idle eviction, and
// draining shutdown. It is safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int64
	closed   bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewManager starts a manager (and its idle janitor, when IdleTTL > 0).
// With a Store configured, every recoverable on-disk session is replayed
// and live before NewManager returns; it errors only when the store root
// itself cannot be scanned (individual bad sessions degrade to absent).
func NewManager(cfg Config) (*Manager, error) {
	m := &Manager{
		cfg:         cfg.withDefaults(),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if m.cfg.Store != nil {
		if err := m.recoverSessions(); err != nil {
			return nil, err
		}
		// Group-commit visibility: one observer call per committed group,
		// before any session traffic can race the install.
		if c := m.cfg.Store.Committer(); c != nil {
			c.SetObserver(func(records, logs int) {
				metrics.GroupCommits.Add(1)
				metrics.GroupCommitRecords.Add(int64(records))
			})
		}
	}
	if m.cfg.IdleTTL > 0 {
		go m.janitor()
	} else {
		close(m.janitorDone)
	}
	return m, nil
}

// Create builds a new session for the request.
func (m *Manager) Create(req CreateSessionRequest) (SessionInfo, error) {
	spec, ok := online.LookupEngine(req.Alg)
	if !ok {
		return SessionInfo{}, &apiError{status: 400, msg: fmt.Sprintf(
			"unknown engine %q (have %v)", req.Alg, online.EngineNames())}
	}
	// Validate T and G through the same gate the engines use, without
	// constructing a throwaway engine.
	if _, err := online.NewEngine(req.Alg, req.T, req.G); err != nil {
		return SessionInfo{}, &apiError{status: 400, msg: err.Error()}
	}
	if req.ID != "" {
		if err := validateSessionID(req.ID); err != nil {
			return SessionInfo{}, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return SessionInfo{}, &apiError{status: 503, msg: "server is shutting down"}
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return SessionInfo{}, &apiError{status: 429, retryAfter: true, msg: fmt.Sprintf(
			"session limit reached (%d live); delete or let idle sessions expire and retry", len(m.sessions))}
	}
	var id string
	if req.ID != "" {
		// Client-pinned ID (the cluster gateway chooses IDs so it can hash
		// them onto nodes before creating). A collision with anything — a
		// live session, or an on-disk directory from a failed recovery or
		// an in-flight migration — is a 409, never a silent reuse.
		id = req.ID
		if _, dup := m.sessions[id]; dup {
			return SessionInfo{}, &apiError{status: 409, msg: fmt.Sprintf("session %q already exists", id)}
		}
		if m.cfg.Store != nil {
			exists, err := m.cfg.Store.Exists(id)
			if err != nil {
				return SessionInfo{}, &apiError{status: 500, msg: fmt.Sprintf("probing session storage: %v", err)}
			}
			if exists {
				return SessionInfo{}, &apiError{status: 409, msg: fmt.Sprintf(
					"session %q has on-disk state on this node", id)}
			}
		}
		bumpNextID(&m.nextID, id)
	} else {
		m.nextID++
		id = fmt.Sprintf("s-%06d", m.nextID)
	}
	var per *persister
	if m.cfg.Store != nil {
		// The directory, the log, and the create record exist before the
		// session does; a crash right after this lands a recoverable (if
		// empty) session, never an untracked one. Creation failure burns
		// the ID, which is harmless.
		log, err := m.cfg.Store.Create(id)
		if err != nil {
			return SessionInfo{}, &apiError{status: 500, msg: fmt.Sprintf("creating session storage: %v", err)}
		}
		n, err := log.AppendCreate(store.CreateCommand{Alg: spec.Name, T: req.T, G: req.G})
		if err != nil {
			if cErr := log.Close(); cErr != nil {
				m.cfg.Logger.Warn("closing wal of half-created session", "session", id, "err", cErr)
			}
			if rmErr := m.cfg.Store.Remove(id); rmErr != nil {
				m.cfg.Logger.Warn("removing half-created session directory", "session", id, "err", rmErr)
			}
			return SessionInfo{}, &apiError{status: 500, msg: fmt.Sprintf("persisting session create: %v", err)}
		}
		metrics.WALAppends.Add(1)
		metrics.WALBytes.Add(int64(n))
		per = newPersister(log, m.cfg.SnapshotEvery, 0, m.cfg.Logger, id)
	}
	s := newSession(id, spec, req.T, req.G, m.cfg.MaxBuffer, m.cfg.TraceRing, per, time.Now())
	m.sessions[id] = s
	metrics.SessionsCreated.Add(1)
	metrics.SessionsActive.Add(1)
	return SessionInfo{ID: id, Alg: spec.Name, T: req.T, G: req.G}, nil
}

// Get looks up a live session.
func (m *Manager) Get(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, &apiError{status: 404, msg: fmt.Sprintf("no session %q", id)}
	}
	return s, nil
}

// Delete stops a session and removes it from the table, waiting for its
// worker to drain. An ID that is not live but has a directory on disk —
// the settled source copy of a migrated-away session, or an
// unrecoverable directory kept for inspection — is purged from disk, so
// DELETE doubles as the cluster's post-migration cleanup verb.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.mu.Unlock()
		m.retire(s, diskDestroy)
		return nil
	}
	// Purge under the same lock as the liveness check so a concurrent
	// Create or Import of the same ID cannot land between the check and
	// the removal and lose its fresh directory.
	defer m.mu.Unlock()
	if m.cfg.Store != nil {
		exists, err := m.cfg.Store.Exists(id)
		if err == nil && exists {
			if err := m.cfg.Store.Remove(id); err != nil {
				return &apiError{status: 500, msg: fmt.Sprintf("removing session directory: %v", err)}
			}
			return nil
		}
	}
	return &apiError{status: 404, msg: fmt.Sprintf("no session %q", id)}
}

// diskFate is what a retiring session leaves on disk.
type diskFate int

const (
	// diskSettle writes a final snapshot and closes the log; the session
	// survives the next boot. Graceful shutdown.
	diskSettle diskFate = iota
	// diskDestroy closes the log and removes the session directory; the
	// session is gone for good. DELETE and idle eviction, which would
	// otherwise leak orphaned directories that resurrect at every boot.
	diskDestroy
)

// retire shuts a session's worker down, releases its buffered-arrival
// contribution to the queue-depth gauge, and applies fate to its on-disk
// state. The subtraction uses the session's own depth counter, not a
// rederived buffer length: a session broken by an engine panic can hold
// jobs the buffer no longer reflects, and Swap(0) returns exactly what
// this session added to the gauge.
func (m *Manager) retire(s *session, fate diskFate) {
	s.halt()
	<-s.done
	metrics.QueueDepth.Add(-s.depth.Swap(0))
	metrics.SessionsActive.Add(-1)
	if s.per == nil {
		return
	}
	switch fate {
	case diskSettle:
		s.per.settle(s)
	case diskDestroy:
		if err := s.per.log.Close(); err != nil {
			m.cfg.Logger.Warn("closing wal before removal", "session", s.id, "err", err)
		}
		if err := m.cfg.Store.Remove(s.id); err != nil {
			m.cfg.Logger.Warn("removing session directory", "session", s.id, "err", err)
		}
	}
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// janitor periodically evicts sessions idle longer than IdleTTL.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	ticker := time.NewTicker(m.cfg.JanitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			m.evictIdle(time.Now())
		}
	}
}

// evictIdle removes every session whose last activity is older than
// IdleTTL as of now.
func (m *Manager) evictIdle(now time.Time) {
	cutoff := now.Add(-m.cfg.IdleTTL).UnixNano()
	var idle []*session
	m.mu.Lock()
	for id, s := range m.sessions {
		if s.lastActive.Load() < cutoff {
			delete(m.sessions, id)
			idle = append(idle, s)
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		m.retire(s, diskDestroy)
		metrics.SessionsEvicted.Add(1)
	}
}

// Shutdown drains the manager: new work is refused with a 503, every
// session worker finishes its in-flight command, and the janitor stops.
// It returns ctx.Err if the context expires before the drain completes.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyClosed := m.closed
	m.closed = true
	ss := make([]*session, 0, len(m.sessions))
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ss = append(ss, m.sessions[id])
		delete(m.sessions, id)
	}
	m.mu.Unlock()

	if !alreadyClosed {
		close(m.janitorStop)
	}
	<-m.janitorDone

	for _, s := range ss {
		s.halt()
	}
	for _, s := range ss {
		select {
		case <-s.done:
			metrics.QueueDepth.Add(-s.depth.Swap(0))
			metrics.SessionsActive.Add(-1)
			// Graceful shutdown settles persistence — final snapshot plus
			// clean close — so the next boot replays nothing.
			if s.per != nil {
				s.per.settle(s)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
