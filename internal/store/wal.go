package store

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	walName  = "wal"
	snapName = "snap"
)

// Log is one session's write-ahead log. It is owned by the session's
// worker goroutine (appends) or, after the worker has drained, by the
// manager (settle/close); it is never used concurrently and holds no
// locks, keeping the scheduling hot path lock-free.
type Log struct {
	dir        string
	sid        string
	f          *os.File
	fsync      FsyncPolicy
	batchEvery int
	unsynced   int
	seq        uint64
	closed     bool
	onSync     func(time.Duration)

	// poisoned latches the first write/sync failure. A torn or failed
	// write leaves a corrupt frame mid-log; recovery truncates at the
	// first bad frame, so any record appended *after* the failure would
	// be acknowledged and then silently lost. Once poisoned, every
	// append and snapshot fails until the session is rebuilt.
	poisoned error

	// committer, when set with FsyncAlways, routes appends through the
	// store-wide group commit instead of a per-record fsync.
	committer *Committer

	// payload and frame are the command-encoding and record-framing
	// scratch buffers, reused across appends so the steady-state append
	// path allocates nothing. Safe because appends are serialized by the
	// owning worker, and the committer only reads the frame while that
	// worker is blocked waiting on it.
	payload, frame []byte

	// writef and syncf, when non-nil, replace f.Write / f.Sync — test
	// hooks for injecting short writes and sync failures.
	writef func([]byte) (int, error)
	syncf  func() error
}

// poison latches err as the log's permanent failure state. Called on the
// owning worker (local append path) or on the committer goroutine while
// the worker is blocked in commit, so access is ordered either way.
func (l *Log) poison(err error) {
	if l.poisoned == nil {
		l.poisoned = err
	}
}

// Poisoned reports the latched write failure, if any.
func (l *Log) Poisoned() error { return l.poisoned }

// fileWrite routes through the short-write test hook when installed.
func (l *Log) fileWrite(buf []byte) (int, error) {
	if l.writef != nil {
		return l.writef(buf)
	}
	return l.f.Write(buf)
}

// fileSync routes through the sync-failure test hook when installed.
func (l *Log) fileSync() error {
	if l.syncf != nil {
		return l.syncf()
	}
	return l.f.Sync()
}

// writeFrame writes one framed record, poisoning the log on any failure
// — including a short write, after which the tail of the frame is
// missing and every later append would be truncated away by recovery.
func (l *Log) writeFrame(buf []byte) error {
	if l.poisoned != nil {
		return fmt.Errorf("store: log %s poisoned by earlier write failure: %w", l.dir, l.poisoned)
	}
	n, err := l.fileWrite(buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("store: short write (%d of %d bytes)", n, len(buf))
	}
	if err != nil {
		err = fmt.Errorf("store: appending record %d: %w", l.seq, err)
		l.poison(err)
		return err
	}
	return nil
}

// SetSyncObserver installs a callback timing every fsync the log issues
// on the append path (FsyncAlways per-record syncs and FsyncBatch
// flushes). nil (the default) removes the timing entirely — the
// observer-less path does not read the clock. The server uses this to
// attribute `fsync-wait` spans separately from `wal-append`.
func (l *Log) SetSyncObserver(fn func(time.Duration)) { l.onSync = fn }

// sync runs one fsync, timing it when an observer is installed.
func (l *Log) sync() error {
	if l.onSync == nil {
		return l.fileSync()
	}
	start := time.Now()
	err := l.fileSync()
	l.onSync(time.Since(start))
	return err
}

// Seq returns the sequence number of the last record appended (or
// reflected in the snapshot the log was recovered behind); 0 before the
// first append.
func (l *Log) Seq() uint64 { return l.seq }

// Dir returns the session directory the log writes into.
func (l *Log) Dir() string { return l.dir }

// append frames and writes one record, honoring the fsync policy. It
// returns the bytes written for metrics accounting. The frame is built
// in the log's reusable scratch buffer, so a steady-state append
// allocates nothing beyond the caller's payload.
func (l *Log) append(typ RecordType, payload []byte) (int, error) {
	if l.closed {
		return 0, fmt.Errorf("store: append to closed log %s", l.dir)
	}
	if l.poisoned != nil {
		return 0, fmt.Errorf("store: log %s poisoned by earlier write failure: %w", l.dir, l.poisoned)
	}
	l.seq++
	l.frame = appendRecord(l.frame[:0], recordVersion, typ, l.seq, payload)

	if l.committer != nil && l.fsync == FsyncAlways {
		// Group-commit path: the committer performs both the write and
		// the shared fsync; this worker blocks until the group is
		// durable. With an observer installed the whole commit wait is
		// attributed as fsync wait — the write is a few microseconds of
		// it, the shared fsync the rest.
		if l.onSync == nil {
			return l.committer.commit(l, l.frame)
		}
		start := time.Now()
		n, err := l.committer.commit(l, l.frame)
		l.onSync(time.Since(start))
		return n, err
	}

	if err := l.writeFrame(l.frame); err != nil {
		return 0, err
	}
	switch l.fsync {
	case FsyncAlways:
		if err := l.sync(); err != nil {
			err = fmt.Errorf("store: syncing record %d: %w", l.seq, err)
			l.poison(err)
			return 0, err
		}
	case FsyncBatch:
		if l.unsynced++; l.unsynced >= l.batchEvery {
			if err := l.Sync(); err != nil {
				l.poison(err)
				return 0, err
			}
		}
	}
	return len(l.frame), nil
}

// AppendCreate logs the session-create command; it must be the first
// record of a fresh log.
func (l *Log) AppendCreate(c CreateCommand) (int, error) {
	if l.seq != 0 {
		return 0, fmt.Errorf("store: create record after %d records", l.seq)
	}
	l.payload = c.appendTo(l.payload[:0])
	return l.append(RecordCreate, l.payload)
}

// AppendArrivals logs one accepted arrivals batch.
func (l *Log) AppendArrivals(c ArrivalsCommand) (int, error) {
	l.payload = c.appendTo(l.payload[:0])
	return l.append(RecordArrivals, l.payload)
}

// AppendSteps logs one step command.
func (l *Log) AppendSteps(c StepsCommand) (int, error) {
	l.payload = c.appendTo(l.payload[:0])
	return l.append(RecordSteps, l.payload)
}

// Sync flushes buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	if l.closed {
		return nil
	}
	if err := l.sync(); err != nil {
		return fmt.Errorf("store: syncing wal: %w", err)
	}
	l.unsynced = 0
	return nil
}

// WriteSnapshot atomically persists a snapshot reflecting every record
// appended so far, then truncates the WAL behind it. The snapshot file
// is written to a temp name, synced, and renamed over the previous
// snapshot, so a crash at any point leaves either the old or the new
// snapshot intact — and a crash between the rename and the truncate is
// benign because recovery skips WAL records with Seq <= the snapshot's.
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	if l.closed {
		return fmt.Errorf("store: snapshot on closed log %s", l.dir)
	}
	// A poisoned log's tail is torn: a snapshot would claim a Seq whose
	// record never became durable, so refuse and let the session degrade.
	if l.poisoned != nil {
		return fmt.Errorf("store: snapshot on poisoned log %s: %w", l.dir, l.poisoned)
	}
	// The WAL must be durable up to the state the snapshot captures
	// before the old log prefix is dropped.
	if l.fsync != FsyncNone {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	snap.Version = snapshotVersion
	snap.Seq = l.seq
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //caliblint:allow durablesync -- the write error is surfaced and the temp file removed; nothing durable rests on this close
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if l.fsync != FsyncNone {
		if err := f.Sync(); err != nil {
			f.Close() //caliblint:allow durablesync -- the sync error is surfaced and the temp file removed; nothing durable rests on this close
			os.Remove(tmp)
			return fmt.Errorf("store: syncing snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if l.fsync != FsyncNone {
		if err := syncDir(l.dir); err != nil {
			return fmt.Errorf("store: syncing session dir: %w", err)
		}
	}
	// The snapshot now covers every logged record; drop the log prefix.
	// The fd is O_APPEND, so the next append lands at the new (zero)
	// end of file.
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal behind snapshot: %w", err)
	}
	l.unsynced = 0
	return nil
}

// Close flushes (per policy) and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var syncErr error
	if l.fsync != FsyncNone {
		syncErr = l.f.Sync()
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("store: closing wal: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("store: syncing wal on close: %w", syncErr)
	}
	return nil
}

// Abort closes the log without syncing or snapshotting, simulating a
// hard process kill: whatever the OS has is whatever recovery will see.
// Crash tests use it; production paths use Close or WriteSnapshot.
func (l *Log) Abort() {
	if l.closed {
		return
	}
	l.closed = true
	l.f.Close() //caliblint:allow durablesync -- simulated kill -9: recovery must cope with whatever the OS kept, so the close result is deliberately meaningless
}
