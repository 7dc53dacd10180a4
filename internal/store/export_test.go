package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// exportFixture builds a session with a snapshot and a one-command WAL
// tail behind it, and returns the store and the snapshot file's bytes.
func exportFixture(t *testing.T) (*Store, []byte) {
	t.Helper()
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l, err := st.Create("s-000001")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := l.AppendCreate(CreateCommand{Alg: "alg2", T: 5, G: 7}); err != nil {
		t.Fatalf("AppendCreate: %v", err)
	}
	if _, err := l.AppendArrivals(ArrivalsCommand{Jobs: []JobRec{{ID: 0, Release: 0, Weight: 2}, {ID: 1, Release: 3, Weight: 1}}}); err != nil {
		t.Fatalf("AppendArrivals: %v", err)
	}
	snap := &Snapshot{
		Create:   CreateCommand{Alg: "alg2", T: 5, G: 7},
		Engine:   []byte(`{"fake":"state"}`),
		Jobs:     []JobRec{{ID: 0, Release: 0, Weight: 2}, {ID: 1, Release: 3, Weight: 1}},
		Buffered: []int{1},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := l.AppendSteps(StepsCommand{K: 4}); err != nil {
		t.Fatalf("AppendSteps: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return st, snapFile(t, st, "s-000001")
}

func snapFile(t *testing.T, st *Store, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(st.Root(), id, snapName))
	if err != nil {
		t.Fatalf("reading snap file: %v", err)
	}
	return b
}

// TestSnapshotFileRoundTrip pins the migration payload: the bytes of a
// snap file decode, and re-encode byte for byte.
func TestSnapshotFileRoundTrip(t *testing.T) {
	_, b := exportFixture(t)
	snap, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if snap.Seq != 2 || snap.Create != (CreateCommand{Alg: "alg2", T: 5, G: 7}) || len(snap.Jobs) != 2 {
		t.Fatalf("decoded %+v", snap)
	}
	again, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("re-encoded %x, want %x", again, b)
	}
}

func TestImportSessionRoundTrip(t *testing.T) {
	_, b := exportFixture(t)
	snap, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	want := *snap
	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open dst: %v", err)
	}
	l, err := dst.ImportSession("s-000001", snap)
	if err != nil {
		t.Fatalf("ImportSession: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := dst.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Failed) != 0 || len(rec.Sessions) != 1 {
		t.Fatalf("recovery = %d sessions, %d failed", len(rec.Sessions), len(rec.Failed))
	}
	got := rec.Sessions[0]
	defer got.Log.Close()
	want.Seq = 1
	if !reflect.DeepEqual(got.Snap, &want) || got.Create != want.Create {
		t.Fatalf("recovered snap %+v create %+v, want %+v", got.Snap, got.Create, want)
	}
	if len(got.Commands) != 0 || got.Log.Seq() != 1 {
		t.Fatalf("import left %d commands, seq %d; want none at seq 1", len(got.Commands), got.Log.Seq())
	}
}

func TestImportSessionReplacesExistingDir(t *testing.T) {
	src, b := exportFixture(t)
	snap, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	// Rollback re-imports over the settled remains of the same session:
	// the old WAL tail goes with them.
	l, err := src.ImportSession("s-000001", snap)
	if err != nil {
		t.Fatalf("ImportSession over existing dir: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rs, err := src.RecoverOne("s-000001")
	if err != nil {
		t.Fatalf("RecoverOne: %v", err)
	}
	defer rs.Log.Close()
	if rs.Snap == nil || len(rs.Commands) != 0 {
		t.Fatalf("re-imported session has snap %v and %d commands, want a snap and none", rs.Snap != nil, len(rs.Commands))
	}
}

func TestImportSessionRejectsBadSnapshot(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap := &Snapshot{Create: CreateCommand{Alg: "alg2", T: 1}, Jobs: []JobRec{{ID: 3}}}
	if _, err := st.ImportSession("s-000002", snap); err == nil {
		t.Fatal("a non-dense job table must be rejected")
	}
	if ok, err := st.Exists("s-000002"); err != nil || ok {
		t.Fatalf("failed import left a directory behind (ok=%v err=%v)", ok, err)
	}
}

func TestExists(t *testing.T) {
	st, _ := exportFixture(t)
	if ok, err := st.Exists("s-000001"); err != nil || !ok {
		t.Fatalf("Exists(s-000001) = %v, %v", ok, err)
	}
	if ok, err := st.Exists("s-999999"); err != nil || ok {
		t.Fatalf("Exists(s-999999) = %v, %v", ok, err)
	}
	if _, err := st.Exists("../escape"); err == nil {
		t.Fatal("hostile id must be rejected")
	}
}
