package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"calibsched/internal/par"
)

// RecoveredSession is one session reconstructable from disk: its
// construction parameters, the latest snapshot (nil when the whole
// history lives in the log), the commands to replay on top, and the
// log handle reopened for continued appends.
type RecoveredSession struct {
	ID     string
	Create CreateCommand
	// Snap is the state to start replay from; nil means replay begins
	// with a fresh engine.
	Snap *Snapshot
	// Commands are the logged commands not reflected in Snap, in order.
	// The create command is folded into Create and never appears here.
	Commands []Command
	// Log continues the session's WAL; its sequence numbering resumes
	// after the last valid record.
	Log *Log
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
}

// FailedSession is a session directory that could not be recovered;
// the session is absent from serving but its directory is left on disk
// for inspection (the manager still skips its ID when numbering new
// sessions).
type FailedSession struct {
	ID  string
	Err error
}

// Recovery is the result of scanning a store root.
type Recovery struct {
	Sessions []RecoveredSession
	Failed   []FailedSession
}

// Recover scans every session directory under the root and
// reconstructs what it can. Recovery is deliberately tolerant: a torn
// or checksum-invalid tail is truncated and the valid prefix served; a
// directory with no usable state at all degrades to "session absent".
// It never panics on any file contents and never surfaces a
// checksum-invalid record.
//
// The group-commit journal's records are folded back into their session
// WALs on the way (DESIGN.md §9): each session's files are read once and
// its journal frames spliced in within that read. Sessions are scanned
// in parallel on GOMAXPROCS workers; the result, Failed order included,
// is that of a scan in ID order. A splice failure fails Recover and
// keeps the journal for the next boot.
//
// What happens to the journal then depends on this boot. With group
// commit, the journal stays: the spliced WALs are not fsynced here but
// handed, as the returned sessions' Logs, to the committer, whose next
// rotation fsyncs them before it truncates the journal. Without group
// commit (the journal may be left over from a run that had it), and
// whenever the journal holds frames of a session that has no directory,
// every WAL it covers is fsynced and the journal is then truncated. A
// session that fails recovery after its splice has its WAL fsynced in
// either case, since no Log carries it to a rotation.
func (s *Store) Recover() (*Recovery, error) {
	journal, nonEmpty, err := s.readJournal()
	if err != nil {
		return nil, err
	}
	ids, err := s.SessionIDs()
	if err != nil {
		return nil, err
	}
	// Frames without a directory are left by a crash inside Remove, or
	// by a release that wrote no tombstones. Kept, they would be spliced
	// into a later session of the same ID, so that journal is dropped.
	keep := s.committer != nil
	for sid := range journal {
		if _, found := slices.BinarySearch(ids, sid); !found {
			keep = false
		}
	}
	// Sessions share no files, so their reads, splices and fsyncs can
	// overlap; the outcomes are taken in ID order below.
	scanned := make([]sessionScan, len(ids))
	errs := make([]error, len(ids))
	par.Each(len(ids), func(i int) {
		scanned[i], errs[i] = s.scanSession(ids[i], journal[ids[i]], keep)
	})
	rec := &Recovery{}
	var scans []sessionScan
	for i, id := range ids {
		var merr mergeError
		if errors.As(errs[i], &merr) {
			return nil, fmt.Errorf("store: merging journal into session %s: %w", id, merr.err)
		}
		if errs[i] != nil {
			rec.Failed = append(rec.Failed, FailedSession{ID: id, Err: errs[i]})
			continue
		}
		scans = append(scans, scanned[i])
	}
	if nonEmpty && !keep {
		// Every acknowledged record now rests durably in its session WAL;
		// drop the journal so the next recovery (or a live committer
		// sharing this store in tests) starts from an empty one.
		if err := os.Truncate(filepath.Join(s.root, journalName), 0); err != nil {
			return nil, fmt.Errorf("store: truncating group journal: %w", err)
		}
		if err := syncDir(s.root); err != nil {
			return nil, err
		}
	}
	var spliced []*Log
	for _, sc := range scans {
		rs, err := s.reopen(sc)
		if err != nil {
			if sc.spliced {
				// No Log takes this WAL to a rotation: sync it now.
				if serr := syncFile(filepath.Join(s.root, sc.rs.ID, walName)); serr != nil {
					for _, open := range rec.Sessions {
						open.Log.Abort()
					}
					return nil, fmt.Errorf("store: merging journal into session %s: %w", sc.rs.ID, serr)
				}
			}
			rec.Failed = append(rec.Failed, FailedSession{ID: sc.rs.ID, Err: err})
			continue
		}
		if sc.spliced {
			spliced = append(spliced, rs.Log)
		}
		rec.Sessions = append(rec.Sessions, *rs)
	}
	if len(spliced) > 0 {
		s.committer.adopt(spliced)
	}
	return rec, nil
}

// readJournal groups the group-commit journal's entries by session, in
// journal order. The frames are complete session records, byte-identical
// to what each session WAL received. A tombstone drops the frames its
// session collected so far: they belong to an earlier session of the
// same ID. A torn journal tail is a crash mid-group, none of whose
// records were acknowledged, and is discarded. nonEmpty reports that the
// file holds bytes to truncate.
func (s *Store) readJournal() (frames map[string][][]byte, nonEmpty bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.root, journalName))
	if err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("store: reading group journal: %w", err)
	}
	frames = make(map[string][][]byte)
	for off := 0; off < len(data); {
		rec, n, err := readRecord(data[off:])
		if err != nil || rec.Type != RecordGroupEntry {
			break
		}
		sid, frame, err := decodeGroupEntry(rec.Payload)
		if err != nil {
			break
		}
		if len(frame) == 0 {
			delete(frames, sid)
		} else {
			frames[sid] = append(frames[sid], frame)
		}
		off += n
	}
	return frames, len(data) > 0, nil
}

// mergeError marks a failure to splice journal frames into a session
// WAL. Unlike a corrupt session, it fails recovery as a whole: the
// journal may hold the only durable copy of acknowledged records.
type mergeError struct{ err error }

func (e mergeError) Error() string { return e.err.Error() }

// spliceJournal appends to a session's WAL the journal frames it lacks,
// unsynced, and returns the WAL's bytes as they now stand. Frames at or
// below the durable horizon (the snapshot's seq, or the last valid
// record the WAL already holds) are skipped; a torn WAL tail is cut
// first so the spliced frames extend a valid prefix.
func spliceJournal(walPath string, data []byte, snapSeq uint64, frames [][]byte) ([]byte, error) {
	last, validLen := snapSeq, 0
	for validLen < len(data) {
		rec, n, err := readRecord(data[validLen:])
		if err != nil {
			break
		}
		last = max(last, rec.Seq)
		validLen += n
	}
	var missing []byte
	for _, frame := range frames {
		// The journal entry's CRC covered the frame, so it decodes.
		if rec, _, err := readRecord(frame); err == nil && rec.Seq > last {
			missing = append(missing, frame...)
			last = rec.Seq
		}
	}
	if len(missing) == 0 {
		// A torn tail is left for the scan's usual truncation.
		return data, nil
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reopening wal: %w", err)
	}
	if validLen < len(data) {
		// The WAL's own torn tail is superseded by the journal's
		// complete copies.
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close() //caliblint:allow durablesync -- the truncate error is surfaced and the journal kept; the next boot retries the merge
			return nil, fmt.Errorf("cutting torn wal tail: %w", err)
		}
	}
	if _, err := f.Write(missing); err != nil {
		f.Close() //caliblint:allow durablesync -- the write error is surfaced and the journal kept; the next boot retries the merge
		return nil, fmt.Errorf("splicing journal frames: %w", err)
	}
	return append(data[:validLen:validLen], missing...), f.Close()
}

// syncFile fsyncs the file at path. A missing file holds nothing to make
// durable.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //caliblint:allow durablesync -- the sync error is surfaced; nothing was written through this handle
		return err
	}
	return f.Close()
}

// RecoverOne rebuilds a single session directory — Recover scoped to one
// id, for putting back a session that was pulled out of serving (a
// failed migration export) without rescanning, or touching the open
// logs of, every other session under the root.
func (s *Store) RecoverOne(id string) (*RecoveredSession, error) {
	sc, err := s.scanSession(id, nil, false)
	if err != nil {
		return nil, err
	}
	return s.reopen(sc)
}

// sessionScan is one session directory decoded in memory: the recovered
// state (without a Log yet), the seq of its last valid record, the byte
// length of the WAL's valid prefix, and whether journal frames were
// spliced into the WAL without an fsync.
type sessionScan struct {
	rs       *RecoveredSession
	lastSeq  uint64
	validLen int
	spliced  bool
}

// reopen cuts a scanned session's torn WAL tail and reopens the WAL for
// appending after its last valid record.
func (s *Store) reopen(sc sessionScan) (*RecoveredSession, error) {
	walPath := filepath.Join(s.root, sc.rs.ID, walName)
	if sc.rs.Truncated {
		if err := os.Truncate(walPath, int64(sc.validLen)); err != nil {
			return nil, fmt.Errorf("store: truncating torn wal: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: reopening wal: %w", err)
	}
	sc.rs.Log = s.newLog(filepath.Dir(walPath), f, sc.lastSeq)
	return sc.rs, nil
}

// scanSession reads one session directory's snapshot and WAL once, and
// decodes the snapshot and the WAL's decodable command prefix. With
// journal frames it first splices them into the WAL (spliceJournal),
// failing with a mergeError if that fails, and then fsyncs the WAL —
// unless deferSync leaves that to the committer's next rotation and the
// session recovers, which the scan reports as spliced. Without journal
// frames it modifies nothing on disk: it is also the read path of
// migration export, which ships the state elsewhere and must leave the
// directory exactly as found.
func (s *Store) scanSession(id string, journal [][]byte, deferSync bool) (sessionScan, error) {
	dir, err := s.dir(id)
	if err != nil {
		return sessionScan{}, err
	}
	snap, snapErr := readSnapshot(filepath.Join(dir, snapName))

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		err = fmt.Errorf("store: reading wal: %w", err)
		if len(journal) > 0 {
			err = mergeError{err}
		}
		return sessionScan{}, err
	}
	if len(journal) == 0 {
		return decodeSession(id, snap, snapErr, data)
	}
	// A corrupt snapshot contributes no horizon; the session still gets
	// its frames, in the WAL kept for inspection.
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.Seq
	}
	if data, err = spliceJournal(walPath, data, snapSeq, journal); err != nil {
		return sessionScan{}, mergeError{err}
	}
	sc, err := decodeSession(id, snap, snapErr, data)
	if err == nil && deferSync {
		sc.spliced = true
		return sc, nil
	}
	// No rotation will sync this WAL: the boot drops the journal, or the
	// session failed and no Log reaches the committer. The journal may
	// hold the only durable copy of its records, spliced or not.
	if serr := syncFile(walPath); serr != nil {
		return sessionScan{}, mergeError{fmt.Errorf("syncing merged wal: %w", serr)}
	}
	return sc, err
}

// decodeSession decodes one session's snapshot and WAL bytes into its
// recovered state, or fails it.
func decodeSession(id string, snap *Snapshot, snapErr error, data []byte) (sessionScan, error) {
	if snapErr != nil {
		return sessionScan{}, snapErr
	}
	if snap == nil && len(data) == 0 {
		// Nothing durable ever existed (crash between directory
		// creation and the create record landing): session absent.
		return sessionScan{}, fmt.Errorf("store: empty log and no snapshot")
	}

	rs := &RecoveredSession{ID: id, Snap: snap}
	var lastSeq uint64
	if snap != nil {
		rs.Create = snap.Create
		lastSeq = snap.Seq
	}
	// Decode the command stream, tracking offsets so the file can be
	// truncated at the first bad record — torn tail, checksum
	// mismatch, or a CRC-valid record whose contents violate the
	// stream's invariants (non-monotone seq, undecodable payload).
	sawCreate := false
	validLen := 0
	for validLen < len(data) {
		frame, n, err := readRecord(data[validLen:])
		if err != nil {
			rs.Truncated = true
			break
		}
		cmd, err := decodeCommand(frame)
		if err != nil {
			rs.Truncated = true
			break
		}
		if frame.Seq <= lastSeq && !(snap != nil && frame.Seq <= snap.Seq) {
			rs.Truncated = true
			break
		}
		if frame.Seq > lastSeq {
			if cmd.Type == RecordCreate {
				if sawCreate || snap != nil {
					// A second create can only be corruption.
					rs.Truncated = true
					break
				}
				rs.Create = *cmd.Create
				sawCreate = true
			} else {
				if snap == nil && !sawCreate {
					// Commands before any create record: the log's
					// head is gone; nothing can be replayed.
					rs.Truncated = true
					break
				}
				rs.Commands = append(rs.Commands, cmd)
			}
			lastSeq = frame.Seq
		}
		// Records with Seq <= snap.Seq are pre-snapshot leftovers from
		// a crash between snapshot publish and log truncation: already
		// reflected in the snapshot, skipped but kept as valid bytes.
		validLen += n
	}
	if snap == nil && !sawCreate {
		return sessionScan{}, fmt.Errorf("store: no create record survives")
	}
	return sessionScan{rs: rs, lastSeq: lastSeq, validLen: validLen}, nil
}
