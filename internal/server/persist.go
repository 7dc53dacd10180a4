package server

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"time"

	"calibsched/internal/online"
	"calibsched/internal/par"
	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
	"calibsched/internal/trace"
)

// persister is a session's write-ahead persistence hook. It is owned by
// the same goroutine that owns the engine — the session worker while the
// session is live, the manager during boot replay and after the worker
// has drained — so it needs no locks and adds nothing to the hot path
// beyond the append itself. Sessions without a store run with a nil
// persister and skip every call behind a single pointer check.
type persister struct {
	log    *store.Log
	every  int // snapshot cadence, in records appended since the last one
	since  int
	logger *slog.Logger
	id     string

	// Fsync attribution for traced appends. timing is armed only between
	// begin and end on the owning goroutine; the log's sync observer adds
	// into syncWait while armed and is a no-op otherwise (snapshot-path
	// syncs outside an append stay unattributed). Under group commit the
	// observer reports the whole commit wait (write + shared fsync) as
	// fsync time, since the wait is fsync-dominated.
	timing   bool
	syncWait time.Duration

	// jobs is the arrivals-encoding scratch reused across appends so a
	// steady-state arrivals batch allocates only its JSON. Owned by the
	// same goroutine as the log; the append marshals it before returning.
	jobs []store.JobRec
}

// newPersister attaches a persister to its log and installs the fsync
// observer that lets traced appends split wal-append from fsync-wait.
func newPersister(log *store.Log, every, since int, logger *slog.Logger, id string) *persister {
	p := &persister{log: log, every: every, since: since, logger: logger, id: id}
	log.SetSyncObserver(p.noteSync)
	return p
}

func (p *persister) noteSync(d time.Duration) {
	if p.timing {
		p.syncWait += d
	}
}

// begin arms fsync attribution for one traced append; untraced appends
// (act == nil) never read the clock.
func (p *persister) begin(act *trace.Active) time.Time {
	if act == nil {
		return time.Time{}
	}
	p.timing = true
	p.syncWait = 0
	return time.Now()
}

// end records the append as a wal-append phase (fsync time excluded) and
// the fsync portion, when any ran, as a fsync-wait phase laid end-to-end
// after it.
func (p *persister) end(act *trace.Active, start time.Time) {
	if act == nil {
		return
	}
	p.timing = false
	total := time.Since(start)
	wal := total - p.syncWait
	if wal < 0 {
		wal = 0
	}
	act.Phase(trace.PhaseWALAppend, start, wal)
	if p.syncWait > 0 {
		act.Phase(trace.PhaseFsyncWait, start.Add(wal), p.syncWait)
	}
}

// appendArrivals logs one accepted arrivals batch before it is applied.
// baseID is the ID the first job of the batch will be assigned; recovery
// asserts replay reassigns the same IDs.
func (p *persister) appendArrivals(specs []JobSpec, baseID int, act *trace.Active) error {
	p.jobs = p.jobs[:0]
	for i, js := range specs {
		p.jobs = append(p.jobs, store.JobRec{ID: baseID + i, Release: js.Release, Weight: js.Weight})
	}
	cmd := store.ArrivalsCommand{Jobs: p.jobs}
	start := p.begin(act)
	n, err := p.log.AppendArrivals(cmd)
	p.end(act, start)
	if err != nil {
		return err
	}
	p.appended(n)
	return nil
}

// appendSteps logs one step command before the engine advances.
func (p *persister) appendSteps(k int64, act *trace.Active) error {
	start := p.begin(act)
	n, err := p.log.AppendSteps(store.StepsCommand{K: k})
	p.end(act, start)
	if err != nil {
		return err
	}
	p.appended(n)
	return nil
}

func (p *persister) appended(n int) {
	metrics.WALAppends.Add(1)
	metrics.WALBytes.Add(int64(n))
	p.since++
}

// maybeSnapshot writes a snapshot when the cadence is due. Called by the
// worker after a command has been appended and applied.
func (p *persister) maybeSnapshot(s *session) {
	if p.since >= p.every {
		p.snapshot(s)
	}
}

// snapshot persists the session's current state and truncates the WAL
// behind it. Best-effort: on failure the WAL still holds the full
// history, so the error is logged and the session keeps serving.
func (p *persister) snapshot(s *session) {
	snap, err := s.buildSnapshot()
	if err != nil {
		p.logger.Warn("snapshot skipped; wal retained", "session", p.id, "err", err)
		return
	}
	if err := p.log.WriteSnapshot(snap); err != nil {
		p.logger.Warn("snapshot failed; wal retained", "session", p.id, "err", err)
		return
	}
	p.since = 0
	metrics.SnapshotsWritten.Add(1)
}

// settle finalizes a gracefully retiring session's on-disk state: a last
// snapshot (so the next boot replays nothing) and a clean close. Broken
// sessions skip the snapshot — a recovered panic may have interrupted
// the engine mid-mutation, and replaying the intact WAL reproduces the
// breakage deterministically instead of persisting the wreckage. Called
// by the manager after the worker has drained (<-s.done), which orders
// this read of worker-owned state after every worker write.
func (p *persister) settle(s *session) {
	if s.broken == nil {
		p.snapshot(s)
	}
	if err := p.log.Close(); err != nil {
		p.logger.Warn("closing wal", "session", p.id, "err", err)
	}
}

// buildSnapshot captures the session's durable state: the engine's own
// encoding plus the accepted-job table and the IDs still sitting in the
// arrival buffer. Worker-owned (or post-drain manager-owned) state only.
func (s *session) buildSnapshot() (*store.Snapshot, error) {
	state, err := s.eng.MarshalState()
	if err != nil {
		return nil, err
	}
	snap := &store.Snapshot{
		Create: store.CreateCommand{Alg: s.spec.Name, T: s.t, G: s.g},
		Engine: state,
		Jobs:   make([]store.JobRec, len(s.jobs)),
	}
	for i, j := range s.jobs {
		snap.Jobs[i] = store.JobRec{ID: i, Release: j.release, Weight: j.weight}
	}
	if n := s.buffer.Len(); n > 0 {
		ids := make([]int, 0, n)
		for _, j := range s.buffer.Items() {
			ids = append(ids, j.ID)
		}
		sort.Ints(ids)
		snap.Buffered = ids
	}
	return snap, nil
}

// loadSnapshot restores worker-owned state from a recovered or imported
// snapshot, which must describe one consistent session. The buffer is
// rebuilt by pushing jobs in ascending ID order, which the queue's total
// order (release, then ID) maps to the exact pop sequence of the
// original run.
func (s *session) loadSnapshot(snap *store.Snapshot) error {
	// The engine may hold only jobs of the table, so the table's length
	// bounds every ID it accepts, and with it what the restore allocates.
	eng, err := online.RestoreEngine(s.spec.Name, s.t, s.g, len(snap.Jobs), snap.Engine, online.WithSink(s.ring))
	if err != nil {
		return err
	}
	// Every job in the table was admissible when it arrived, at clock 0
	// or later, and a buffered one is still in the engine's future.
	s.eng = eng
	s.jobs = make([]jobRec, len(snap.Jobs))
	for i, j := range snap.Jobs {
		if err := s.admissible(i, j.Release, j.Weight, 0); err != nil {
			return err
		}
		s.jobs[i] = jobRec{release: j.Release, weight: j.Weight}
	}
	for _, id := range snap.Buffered {
		if err := s.admissible(id, s.jobs[id].release, s.jobs[id].weight, eng.Now()); err != nil {
			return err
		}
		s.buffer.Push(s.jobs[id].job(id))
	}
	if err := checkHeld(eng, s.jobs, snap.Buffered); err != nil {
		return err
	}
	metrics.QueueDepth.Add(int64(len(snap.Buffered)))
	s.depth.Add(int64(len(snap.Buffered)))
	return nil
}

// checkHeld requires the engine to hold exactly the table's unbuffered
// jobs: each one either queued as the table has it, or started no
// earlier than its release.
func checkHeld(eng online.Engine, jobs []jobRec, buffered []int) error {
	held := make([]bool, len(jobs))
	hold := func(id int) bool {
		ok := id >= 0 && id < len(held) && !held[id]
		if ok {
			held[id] = true
		}
		return ok
	}
	for _, id := range buffered {
		hold(id)
	}
	queued, starts := eng.Jobs()
	for _, j := range queued {
		if !hold(j.ID) || j != jobs[j.ID].job(j.ID) {
			return fmt.Errorf("engine queues %+v, which is no unbuffered job of the table", j)
		}
	}
	for id, start := range starts {
		if start < 0 {
			continue
		}
		if !hold(id) || start < jobs[id].release {
			return fmt.Errorf("engine started job %d at %d, which is no unbuffered job of the table released by then", id, start)
		}
	}
	if id := slices.Index(held, false); id >= 0 {
		return fmt.Errorf("job %d is neither buffered nor held by the engine", id)
	}
	return nil
}

// apply replays one logged command against worker-owned state during
// boot recovery (s.replaying is set, so nothing is re-appended or
// re-counted). The command was validated and accepted in its first life;
// any rejection now is divergence, except a panic-derived broken state,
// which rebuild accepts when it lands on the final command.
func (s *session) apply(cmd store.Command) error {
	switch cmd.Type {
	case store.RecordArrivals:
		base := len(s.jobs)
		specs := make([]JobSpec, len(cmd.Arrivals.Jobs))
		for i, j := range cmd.Arrivals.Jobs {
			if j.ID != base+i {
				return fmt.Errorf("logged job ID %d where replay assigns %d", j.ID, base+i)
			}
			specs[i] = JobSpec{Release: j.Release, Weight: j.Weight}
		}
		return s.guard("replayed arrivals", func() error {
			_, err := s.admit(specs, nil)
			return err
		})
	case store.RecordSteps:
		// The logged k was within the batch limit when accepted; pass it
		// as the limit so a later config change cannot fail replay.
		return s.guard("replayed steps", func() error {
			_, err := s.advance(cmd.Steps.K, cmd.Steps.K, nil)
			return err
		})
	default:
		return fmt.Errorf("unexpected record type %d in command stream", cmd.Type)
	}
}

// recoverSessions rebuilds every recoverable on-disk session before the
// manager accepts traffic, on GOMAXPROCS workers. Runs from NewManager,
// before any concurrent access. Unrecoverable directories are logged,
// counted, and left on disk for inspection; their IDs still advance the
// session numbering so new sessions never collide with them.
func (m *Manager) recoverSessions() error {
	ids, err := m.cfg.Store.SessionIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		var n int64
		if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
	}
	rec, err := m.cfg.Store.Recover()
	if err != nil {
		return err
	}
	for _, f := range rec.Failed {
		m.cfg.Logger.Warn("session unrecoverable; directory kept for inspection",
			"session", f.ID, "err", f.Err)
		metrics.RecoveryFailed.Add(1)
	}
	// Snapshot restore and replay touch only their own session, so they
	// run in parallel; logging, metrics and the session table follow in
	// ID order.
	now := time.Now()
	built := make([]*session, len(rec.Sessions))
	errs := make([]error, len(rec.Sessions))
	par.Each(len(rec.Sessions), func(i int) {
		built[i], errs[i] = m.rebuild(&rec.Sessions[i], now)
	})
	for i := range rec.Sessions {
		rs := &rec.Sessions[i]
		s, err := built[i], errs[i]
		if err != nil {
			m.cfg.Logger.Warn("session replay failed; directory kept for inspection",
				"session", rs.ID, "err", err)
			if cErr := rs.Log.Close(); cErr != nil {
				m.cfg.Logger.Warn("closing wal of unreplayable session", "session", rs.ID, "err", cErr)
			}
			metrics.RecoveryFailed.Add(1)
			continue
		}
		m.sessions[rs.ID] = s
		metrics.SessionsActive.Add(1)
		metrics.RecoveredSessions.Add(1)
		metrics.RecoveredRecords.Add(int64(len(rs.Commands)))
		if rs.Truncated {
			metrics.RecoveryTruncations.Add(1)
		}
	}
	return nil
}

// rebuild reconstructs one session from its recovered log — snapshot
// state, then the replayed command stream — and starts its worker. The
// worker starts only after the state matches the log, so no request can
// observe a half-replayed session.
func (m *Manager) rebuild(rs *store.RecoveredSession, now time.Time) (*session, error) {
	s, err := m.restoreSession(rs, now)
	if err != nil {
		return nil, err
	}
	// Replayed records mean the snapshot is that stale: carry the count
	// into the cadence so a long log earns a fresh snapshot on the next
	// append instead of replaying again after the next crash.
	s.per = newPersister(rs.Log, m.cfg.SnapshotEvery, len(rs.Commands), m.cfg.Logger, rs.ID)
	go s.work()
	return s, nil
}

// restoreSession replays recovered (or migrated — an import is a
// snapshot with no commands) state into a workerless session: snapshot
// first, then the command stream in order against the deterministic
// engine. The returned session has no persister and no running worker;
// the caller attaches both once it decides the session is worth serving.
// On error the session's queue-depth contribution is released, so a
// failed replay leaves no stale gauge behind.
func (m *Manager) restoreSession(rs *store.RecoveredSession, now time.Time) (*session, error) {
	spec, ok := online.LookupEngine(rs.Create.Alg)
	if !ok {
		return nil, fmt.Errorf("create record names unknown engine %q", rs.Create.Alg)
	}
	if _, err := online.NewEngine(rs.Create.Alg, rs.Create.T, rs.Create.G); err != nil {
		return nil, err
	}
	s := makeSession(rs.ID, spec, rs.Create.T, rs.Create.G, m.cfg.MaxBuffer, m.cfg.TraceRing, nil, now)
	s.replaying = true
	if rs.Snap != nil {
		if err := s.loadSnapshot(rs.Snap); err != nil {
			return nil, err
		}
	}
	for i, cmd := range rs.Commands {
		err := s.apply(cmd)
		if err == nil {
			continue
		}
		if s.broken != nil && i == len(rs.Commands)-1 {
			// The live run panicked on its last logged command; replay
			// reproduced it. The session recovers in its broken state.
			break
		}
		metrics.QueueDepth.Add(-s.depth.Swap(0))
		return nil, fmt.Errorf("replaying record %d (seq %d): %w", i, cmd.Seq, err)
	}
	s.replaying = false
	return s, nil
}
