package server

import (
	"fmt"
	"time"

	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
)

// Live session migration, the server-side half of the cluster plane
// (DESIGN.md §13). Export drains a session's worker and ships its state
// as the bytes of its snapshot file; Import decodes and restores them
// into a live session on the receiving node through the same strict
// reader and restore path as boot crash recovery, so a migrated session
// is byte-identical to one that never moved.

// Export removes the session from the table, drains its worker, and
// returns its complete durable state. The on-disk directory (when a
// store is configured) is settled but NOT removed: until the importing
// node has durably accepted the state, the source copy is the only one,
// and the gateway purges it with a DELETE only after the import
// succeeds. A crash mid-migration therefore resurrects the session here
// at next boot rather than losing it (the failure matrix in DESIGN.md
// §13 walks every interleaving).
func (m *Manager) Export(id string) (*ExportedSession, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, &apiError{status: 404, msg: fmt.Sprintf("no session %q", id)}
	}

	// Preflight on the live worker, before the session is pulled from
	// serving: refusing here costs nothing, whereas a failure after the
	// worker has drained can only be repaired by replaying from disk (and
	// not at all for in-memory sessions).
	var pfErr error
	doErr := s.do(func() { pfErr = exportable(s) })
	if doErr != nil {
		return nil, doErr
	}
	if pfErr != nil {
		return nil, pfErr
	}

	// Remove from the table only if it is still the same session — a
	// concurrent Delete+Create, eviction, or competing export may have
	// swapped it out while the preflight ran.
	m.mu.Lock()
	cur, ok := m.sessions[id]
	if !ok || cur != s {
		m.mu.Unlock()
		return nil, &apiError{status: 409, msg: fmt.Sprintf(
			"session %q changed hands during export; retry", id)}
	}
	delete(m.sessions, id)
	m.mu.Unlock()

	// Drain: after <-s.done every worker write is ordered before our
	// reads, and any handler racing on a stale *session pointer gets a
	// clean 503 from do.
	s.halt()
	<-s.done
	metrics.QueueDepth.Add(-s.depth.Swap(0))
	metrics.SessionsActive.Add(-1)

	exp, err := m.buildExport(s)
	if err != nil {
		// The session is already out of the table and its worker is gone;
		// settle the disk copy and replay it back into serving rather than
		// leaking it. If the revive also fails the session stays absent
		// from serving but intact on disk for the next boot.
		if s.per != nil {
			s.per.settle(s)
		}
		m.reviveFromDisk(id)
		return nil, err
	}
	if s.per != nil {
		// Settle the disk copy (final snapshot + clean close) but keep the
		// directory as the crash-safety net described above.
		s.per.settle(s)
	}
	metrics.SessionsExported.Add(1)
	return exp, nil
}

// exportable refuses a broken session: its engine may have been
// interrupted mid-mutation, and shipping it would persist the wreckage.
// Worker-owned (or post-drain manager-owned) read.
func exportable(s *session) error {
	if s.broken != nil {
		return &apiError{status: 409, msg: fmt.Sprintf(
			"session %s is broken (%v); a broken session cannot be exported", s.id, s.broken)}
	}
	return nil
}

// buildExport packages a drained session's state as snap-file bytes.
// With a store, the frame carries the log's seq, so the bytes equal the
// snap file settle writes next.
func (m *Manager) buildExport(s *session) (*ExportedSession, error) {
	if err := exportable(s); err != nil {
		return nil, err
	}
	snap, err := s.buildSnapshot()
	var b []byte
	if err == nil {
		if s.per != nil {
			snap.Seq = s.per.log.Seq()
		}
		b, err = store.EncodeSnapshot(snap)
	}
	if err != nil {
		return nil, &apiError{status: 500, msg: fmt.Sprintf("snapshotting session %s for export: %v", s.id, err)}
	}
	return &ExportedSession{ID: s.id, Snapshot: b}, nil
}

// reviveFromDisk re-imports a session whose export failed after it was
// already pulled from the table. Best-effort: on any error the session
// stays out of serving, with its directory intact for the next boot.
// Requires the session's previous log handle to be settled (closed)
// first, since RecoverOne reopens the WAL for append.
func (m *Manager) reviveFromDisk(id string) {
	if m.cfg.Store == nil {
		return
	}
	rs, err := m.cfg.Store.RecoverOne(id)
	if err != nil {
		m.cfg.Logger.Warn("rescanning session after failed export", "session", id, "err", err)
		return
	}
	s, err := m.rebuild(rs, time.Now())
	if err != nil {
		m.cfg.Logger.Warn("reviving session after failed export", "session", id, "err", err)
		if cErr := rs.Log.Close(); cErr != nil {
			m.cfg.Logger.Warn("closing wal of unrevivable session", "session", id, "err", cErr)
		}
		return
	}
	m.mu.Lock()
	if _, dup := m.sessions[id]; dup || m.closed {
		m.mu.Unlock()
		m.retire(s, diskSettle)
		return
	}
	m.sessions[id] = s
	m.mu.Unlock()
	metrics.SessionsActive.Add(1)
}

// Import materializes shipped session state as a live session on this
// node. The snapshot bytes pass the store's strict decoder (frame, CRC,
// version, table invariants) and the session restore boot recovery uses
// before the session enters the table, so no request can observe it
// half-built and a hostile payload is a 400; a duplicate ID is a 409 —
// the gateway guarantees a session lives on one node at a time, and a
// collision means that invariant broke upstream.
func (m *Manager) Import(exp *ExportedSession) (SessionInfo, error) {
	if err := validateSessionID(exp.ID); err != nil {
		return SessionInfo{}, err
	}
	snap, err := store.DecodeSnapshot(exp.Snapshot)
	if err != nil {
		return SessionInfo{}, &apiError{status: 400, msg: fmt.Sprintf("imported session %s: %v", exp.ID, err)}
	}
	s, err := m.restoreSession(&store.RecoveredSession{ID: exp.ID, Create: snap.Create, Snap: snap}, time.Now())
	if err != nil {
		return SessionInfo{}, &apiError{status: 400, msg: fmt.Sprintf("restoring imported session %s: %v", exp.ID, err)}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.discardRestored(s)
		return SessionInfo{}, &apiError{status: 503, msg: "server is shutting down"}
	}
	if _, dup := m.sessions[exp.ID]; dup {
		m.mu.Unlock()
		m.discardRestored(s)
		return SessionInfo{}, &apiError{status: 409, msg: fmt.Sprintf(
			"session %q already lives on this node", exp.ID)}
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.discardRestored(s)
		return SessionInfo{}, &apiError{status: 429, retryAfter: true, msg: fmt.Sprintf(
			"session limit reached (%d live); cannot accept a migrated session", len(m.sessions))}
	}
	if m.cfg.Store != nil {
		// Persist while holding m.mu, matching Create's ordering: the
		// directory exists before the session serves, and no concurrent
		// Create/Import can race on the same ID.
		log, err := m.cfg.Store.ImportSession(exp.ID, snap)
		if err != nil {
			m.mu.Unlock()
			m.discardRestored(s)
			return SessionInfo{}, &apiError{status: 500, msg: fmt.Sprintf("persisting imported session: %v", err)}
		}
		s.per = newPersister(log, m.cfg.SnapshotEvery, 0, m.cfg.Logger, exp.ID)
	}
	bumpNextID(&m.nextID, exp.ID)
	m.sessions[exp.ID] = s
	m.mu.Unlock()

	go s.work()
	metrics.SessionsImported.Add(1)
	metrics.SessionsActive.Add(1)
	return SessionInfo{ID: exp.ID, Alg: s.spec.Name, T: s.t, G: s.g}, nil
}

// discardRestored releases a restored-but-never-served session's
// contribution to the queue-depth gauge (loadSnapshot added its buffered
// arrivals). The worker never started, so
// there is nothing to drain.
func (m *Manager) discardRestored(s *session) {
	metrics.QueueDepth.Add(-s.depth.Swap(0))
}

// List returns every live session, sorted by ID. Sessions that fail to
// report (broken, or shut down between the table read and the worker
// round-trip) are skipped rather than failing the listing.
func (m *Manager) List() SessionListResponse {
	m.mu.Lock()
	ss := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	resp := SessionListResponse{Sessions: make([]SessionInfo, 0, len(ss))}
	for _, s := range ss {
		info, err := s.Info()
		if err != nil {
			continue
		}
		resp.Sessions = append(resp.Sessions, info)
	}
	sortSessionInfos(resp.Sessions)
	return resp
}

func sortSessionInfos(infos []SessionInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}

// validateSessionID enforces the ID charset shared by client-pinned
// creates and imports. Stricter than store.dir's traversal check on
// purpose: IDs appear in URLs, log lines, and directory names, and a
// conservative charset keeps all three contexts quoting-free.
func validateSessionID(id string) error {
	if id == "" {
		return &apiError{status: 400, msg: "session id is empty"}
	}
	if len(id) > 64 {
		return &apiError{status: 400, msg: fmt.Sprintf("session id is %d bytes, max 64", len(id))}
	}
	if id == "." || id == ".." {
		return &apiError{status: 400, msg: fmt.Sprintf("session id %q is reserved", id)}
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return &apiError{status: 400, msg: fmt.Sprintf(
				"session id %q contains %q; letters, digits, '.', '_', and '-' only", id, r)}
		}
	}
	return nil
}

// bumpNextID advances the server-numbered counter past an externally
// chosen ID that happens to match the s-%d pattern, so a later
// server-numbered Create cannot collide with it.
func bumpNextID(next *int64, id string) {
	var n int64
	if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > *next {
		*next = n
	}
}
