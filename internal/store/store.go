// Package store is calibstore, the durable session persistence layer of
// calibserved: a per-session append-only write-ahead log of the session's
// deterministic command stream (create, accepted arrival batches, step
// commands) plus periodic snapshots that capture engine and
// arrival-buffer state and truncate the log behind them.
//
// Why a command log works here: every serving engine is a deterministic
// state machine — the session's entire state is a pure function of the
// ordered commands it accepted. Logging the commands before applying
// them (classic write-ahead discipline) therefore makes recovery exact:
// replaying the log through a fresh engine reproduces the schedule
// byte for byte, which internal/server's differential crash tests prove
// against an uninterrupted run.
//
// On-disk layout, one directory per session under the store root:
//
//	<root>/<session-id>/wal    append-only record stream
//	<root>/<session-id>/snap   latest snapshot (atomic tmp+rename)
//
// Records are length-prefixed, CRC32C-checksummed, and versioned (see
// record.go). Recovery tolerates a torn tail: the log is truncated at
// the first incomplete or checksum-invalid record and the prefix is
// served; a session that cannot be decoded at all degrades to "session
// absent", never to a panic or a half-restored session.
//
// Durability is tiered by FsyncPolicy: per-record fsync (every
// acknowledged command survives machine crash), batched fsync (bounded
// loss window, much cheaper), or OS-buffered (process-crash safe only).
// DESIGN.md §9 documents the format, the tiers, and the recovery
// invariants.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy uint8

const (
	// FsyncBatch (the default) syncs every BatchEvery appends and at
	// every snapshot and close: bounded-loss durability at near
	// OS-buffered cost.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways syncs after every record: an acknowledged command is
	// durable against machine crash before the client sees the reply.
	FsyncAlways
	// FsyncNone never syncs explicitly; the OS flushes at its leisure.
	// Survives process crashes (kill -9) but not machine crashes.
	FsyncNone
)

// ParseFsyncPolicy parses the -fsync flag values "always", "batch", and
// "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or none)", s)
}

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "batch"
	}
}

// defaultBatchEvery is the FsyncBatch sync cadence in records.
const defaultBatchEvery = 64

// Options tune a Store.
type Options struct {
	// Fsync is the WAL flush policy (default FsyncBatch).
	Fsync FsyncPolicy
	// BatchEvery overrides the FsyncBatch cadence in records (default
	// 64); ignored by the other policies.
	BatchEvery int
	// GroupCommit routes FsyncAlways appends through a store-wide
	// committer goroutine that folds every command in flight into one
	// group, journals the group to a single shared file, and issues one
	// fsync — on the journal — for all of them (see committer.go).
	// Per-record durability is unchanged; only the cost is amortized.
	// Ignored by the other policies, which already batch or skip fsyncs.
	GroupCommit bool
}

// Store is the root of the persistence layer: a directory holding one
// subdirectory per session. Store itself is stateless apart from its
// configuration and is safe for concurrent use; each returned Log is
// owned by a single session worker and is not.
type Store struct {
	root       string
	fsync      FsyncPolicy
	batchEvery int
	committer  *Committer
}

// Open validates the root directory and returns a Store. The directory
// is created if missing, and probed for writability so a bad -data-dir
// fails at startup rather than on the first append.
func Open(root string, opts Options) (*Store, error) {
	if root == "" {
		return nil, errors.New("store: empty root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	probe, err := os.CreateTemp(root, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: root %s is not writable: %w", root, err)
	}
	if err := probe.Close(); err != nil {
		return nil, fmt.Errorf("store: closing write probe: %w", err)
	}
	if err := os.Remove(probe.Name()); err != nil {
		return nil, fmt.Errorf("store: cleaning write probe: %w", err)
	}
	be := opts.BatchEvery
	if be <= 0 {
		be = defaultBatchEvery
	}
	st := &Store{root: root, fsync: opts.Fsync, batchEvery: be}
	if opts.GroupCommit && opts.Fsync == FsyncAlways {
		st.committer, err = newCommitter(root)
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Close stops the store's group committer, if any, failing whatever was
// still queued. Call after every session has settled and closed its log;
// a Store without group commit needs no Close (it is then a no-op).
func (s *Store) Close() {
	if s.committer != nil {
		s.committer.Stop()
	}
}

// Committer exposes the group committer (nil unless group commit is
// active) so the server can wire metrics to its per-group observer.
func (s *Store) Committer() *Committer { return s.committer }

// newLog attaches the store's configuration — including the shared
// committer — to a freshly opened WAL fd. Every path that constructs a
// Log (create, recovery, import) goes through here so group commit
// cannot be silently bypassed for a subset of sessions.
func (s *Store) newLog(dir string, f *os.File, seq uint64) *Log {
	return &Log{
		dir: dir, sid: filepath.Base(dir), f: f,
		fsync: s.fsync, batchEvery: s.batchEvery, seq: seq, committer: s.committer,
	}
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Fsync returns the store's flush policy.
func (s *Store) Fsync() FsyncPolicy { return s.fsync }

// dir returns the session's directory path. Session IDs are generated by
// the manager (s-%06d) and never contain separators; reject anything
// else so a hostile ID cannot escape the root.
func (s *Store) dir(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || id == "." || id == ".." {
		return "", fmt.Errorf("store: invalid session id %q", id)
	}
	return filepath.Join(s.root, id), nil
}

// Create makes the session's directory and opens a fresh WAL for it.
// The directory must not already exist: IDs are never reused within a
// store (the manager continues numbering past recovered sessions).
func (s *Store) Create(id string) (*Log, error) {
	dir, err := s.dir(id)
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating session dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating wal: %w", err)
	}
	return s.newLog(dir, f, 0), nil
}

// Remove deletes the session's on-disk state entirely (DELETE and
// idle-TTL eviction). Removing an absent session is not an error. With
// group commit, the journal may still hold the session's records; Remove
// then commits a tombstone behind them, so a later session with the same
// ID does not get them spliced into its WAL at recovery.
func (s *Store) Remove(id string) error {
	dir, err := s.dir(id)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: removing session dir: %w", err)
	}
	if err := syncDir(s.root); err != nil {
		return err
	}
	if s.committer != nil {
		if err := s.committer.tombstone(id); err != nil {
			return fmt.Errorf("store: journaling the removal: %w", err)
		}
	}
	return nil
}

// SessionIDs lists every session directory present under the root,
// sorted, whether or not it is recoverable. The manager uses it to push
// its ID counter past everything on disk.
func (s *Store) SessionIDs() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: scanning root: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// syncDir fsyncs a directory so a just-created, renamed, or removed
// entry survives a machine crash. Filesystems that cannot sync a
// directory handle are tolerated: the data files themselves are synced
// separately and the entry will reappear or vanish atomically either
// way.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //caliblint:allow durablesync -- read-only directory handle; the Sync result below is the durability signal
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
