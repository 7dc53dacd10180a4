package store

import (
	"fmt"
	"os"
)

// Migration import: the store-level half of live session handoff
// (internal/cluster, DESIGN.md §13). An exported session is the bytes of
// its snapshot file (EncodeSnapshot); ImportSession materializes the
// decoded snapshot as a fresh session directory on the receiving store.

// Exists reports whether the session has a directory under the root,
// recoverable or not.
func (s *Store) Exists(id string) (bool, error) {
	dir, err := s.dir(id)
	if err != nil {
		return false, err
	}
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: probing session dir: %w", err)
	}
	return true, nil
}

// ImportSession materializes a shipped snapshot as this store's own
// durable copy: a fresh directory holding the snapshot, renumbered to
// sequence 1, and an empty WAL. Any existing directory for the id is
// replaced: migration rollback re-imports a session over its own settled
// remains, and the shipped state is by construction at least as new.
// The replaced session goes through Remove, so none of its records left
// in the group journal reach the import at recovery.
// The returned Log is synced (per policy) and ready for the session's
// persister to continue appending.
func (s *Store) ImportSession(id string, snap *Snapshot) (*Log, error) {
	if err := s.Remove(id); err != nil {
		return nil, fmt.Errorf("store: clearing session dir for import: %w", err)
	}
	l, err := s.Create(id)
	if err != nil {
		return nil, err
	}
	// The snapshot claims sequence 1, a record that never hits the WAL,
	// exactly like a cadence snapshot claims the seq of its last covered
	// record; the session's next append lands at 2.
	l.seq = 1
	if err := l.WriteSnapshot(snap); err != nil {
		if cErr := l.Close(); cErr != nil {
			err = fmt.Errorf("%w (and closing the partial wal: %v)", err, cErr)
		}
		if rmErr := os.RemoveAll(l.Dir()); rmErr != nil {
			err = fmt.Errorf("%w (and removing the partial dir: %v)", err, rmErr)
		}
		return nil, err
	}
	if s.fsync != FsyncNone {
		if err := syncDir(s.root); err != nil {
			return nil, fmt.Errorf("store: syncing root after import: %w", err)
		}
	}
	return l, nil
}
