package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calibsched/internal/store"
)

// feedAndStep drives a session through arrivals and steps so it has
// state worth migrating: buffered future arrivals, engine-held jobs, and
// some schedule already built.
func feedAndStep(t *testing.T, base, id string) {
	t.Helper()
	var ar ArrivalsResponse
	status := doJSON(t, "POST", base+"/v1/sessions/"+id+"/arrivals", ArrivalsRequest{
		Jobs: []JobSpec{{Release: 0, Weight: 3}, {Release: 2, Weight: 1}, {Release: 25, Weight: 5}},
	}, &ar)
	if status != 200 {
		t.Fatalf("arrivals: status %d", status)
	}
	var sr StepResponse
	if status := doJSON(t, "POST", base+"/v1/sessions/"+id+"/step", StepRequest{Steps: 10}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}
}

// finishAndFetch steps a session to completion and returns its schedule.
func finishAndFetch(t *testing.T, base, id string) ScheduleResponse {
	t.Helper()
	var sr StepResponse
	if status := doJSON(t, "POST", base+"/v1/sessions/"+id+"/step", StepRequest{Steps: 60}, &sr); status != 200 {
		t.Fatalf("step: status %d", status)
	}
	var sched ScheduleResponse
	if status := doJSON(t, "GET", base+"/v1/sessions/"+id+"/schedule", nil, &sched); status != 200 {
		t.Fatalf("schedule: status %d", status)
	}
	return sched
}

// TestExportImportRoundTrip moves a mid-stream session between two
// in-memory servers and checks the finished schedule matches an
// untouched control fed the identical command stream — migration must
// be invisible to the session's math.
func TestExportImportRoundTrip(t *testing.T) {
	_, src := testServer(t, Config{})
	_, dst := testServer(t, Config{})
	_, ctl := testServer(t, Config{})

	id := mustCreate(t, src.URL, CreateSessionRequest{T: 10, G: 20, Alg: "alg2", ID: "mig-001"})
	if id != "mig-001" {
		t.Fatalf("pinned id came back as %q", id)
	}
	ctlID := mustCreate(t, ctl.URL, CreateSessionRequest{T: 10, G: 20, Alg: "alg2", ID: "mig-001"})
	feedAndStep(t, src.URL, id)
	feedAndStep(t, ctl.URL, ctlID)

	var exp ExportedSession
	if status := doJSON(t, "POST", src.URL+"/v1/sessions/"+id+"/export", nil, &exp); status != 200 {
		t.Fatalf("export: status %d", status)
	}
	if exp.ID != id || exp.Snapshot == nil {
		t.Fatalf("export = id %q snapshot %v", exp.ID, exp.Snapshot != nil)
	}
	// The source no longer serves the session.
	if status := doJSON(t, "GET", src.URL+"/v1/sessions/"+id, nil, nil); status != 404 {
		t.Fatalf("source still serves exported session: status %d", status)
	}

	var info SessionInfo
	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", exp, &info); status != 201 {
		t.Fatalf("import: status %d", status)
	}
	if info.ID != id || info.Alg != "alg2" || info.T != 10 || info.G != 20 {
		t.Fatalf("imported info = %+v", info)
	}

	got := finishAndFetch(t, dst.URL, id)
	want := finishAndFetch(t, ctl.URL, ctlID)
	if got.TotalCost != want.TotalCost || got.Flow != want.Flow ||
		len(got.Calibrations) != len(want.Calibrations) || len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("migrated schedule diverged:\n got %+v\nwant %+v", got, want)
	}
	for i := range got.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("assignment %d: got %+v want %+v", i, got.Assignments[i], want.Assignments[i])
		}
	}
}

// TestExportImportPersistent round-trips through stores on both sides
// and then restarts the target, so the imported state must also be
// durable.
func TestExportImportPersistent(t *testing.T) {
	srcStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("opening src store: %v", err)
	}
	dstRoot := t.TempDir()
	dstStore, err := store.Open(dstRoot, store.Options{})
	if err != nil {
		t.Fatalf("opening dst store: %v", err)
	}
	_, src := testServer(t, Config{Store: srcStore})
	dstSrv, dst := testServer(t, Config{Store: dstStore})

	id := mustCreate(t, src.URL, CreateSessionRequest{T: 10, G: 20, Alg: "alg2"})
	feedAndStep(t, src.URL, id)

	var exp ExportedSession
	if status := doJSON(t, "POST", src.URL+"/v1/sessions/"+id+"/export", nil, &exp); status != 200 {
		t.Fatalf("export: status %d", status)
	}
	// The settled source directory survives as the crash-safety net...
	if ok, err := srcStore.Exists(id); err != nil || !ok {
		t.Fatalf("source dir gone after export (ok=%v err=%v)", ok, err)
	}
	// ...holding, byte for byte, the snapshot the export shipped.
	if disk, err := os.ReadFile(filepath.Join(srcStore.Root(), id, "snap")); err != nil || !bytes.Equal(disk, exp.Snapshot) {
		t.Fatalf("export is not the settled snap file (err=%v)", err)
	}
	// ...until DELETE purges it.
	if status := doJSON(t, "DELETE", src.URL+"/v1/sessions/"+id, nil, nil); status != 204 {
		t.Fatalf("post-migration purge: status %d", status)
	}
	if ok, err := srcStore.Exists(id); err != nil || ok {
		t.Fatalf("source dir survived purge (ok=%v err=%v)", ok, err)
	}

	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", exp, nil); status != 201 {
		t.Fatalf("import: status %d", status)
	}
	before := finishAndFetch(t, dst.URL, id)

	// Restart the target: the imported session must come back from disk.
	dst.Close()
	if err := dstSrv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutting down target: %v", err)
	}
	reStore, err := store.Open(dstRoot, store.Options{})
	if err != nil {
		t.Fatalf("reopening dst store: %v", err)
	}
	_, re := testServer(t, Config{Store: reStore})
	var after ScheduleResponse
	if status := doJSON(t, "GET", re.URL+"/v1/sessions/"+id+"/schedule", nil, &after); status != 200 {
		t.Fatalf("schedule after restart: status %d", status)
	}
	if after.TotalCost != before.TotalCost || after.Assigned != before.Assigned {
		t.Fatalf("restart diverged: before %+v after %+v", before, after)
	}
}

func TestImportConflictsAndValidation(t *testing.T) {
	_, src := testServer(t, Config{})
	_, dst := testServer(t, Config{})

	id := mustCreate(t, src.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2"})
	feedAndStep(t, src.URL, id)
	var exp ExportedSession
	if status := doJSON(t, "POST", src.URL+"/v1/sessions/"+id+"/export", nil, &exp); status != 200 {
		t.Fatalf("export: status %d", status)
	}

	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", exp, nil); status != 201 {
		t.Fatalf("first import: status %d", status)
	}
	// A second import of the same ID is a routing-invariant violation.
	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", exp, nil); status != 409 {
		t.Fatalf("duplicate import: status %d, want 409", status)
	}

	bad := exp
	bad.ID = "../escape"
	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", bad, nil); status != 400 {
		t.Fatalf("hostile id import: status %d, want 400", status)
	}

	// Hostile snapshots fail closed, whichever layer catches them.
	snap, err := store.DecodeSnapshot(exp.Snapshot)
	if err != nil {
		t.Fatalf("decoding export: %v", err)
	}
	if len(snap.Buffered) == 0 {
		t.Fatal("fixture has no buffered arrivals to corrupt")
	}
	// A buffered ID beyond the job table, shipped as a v1 (JSON) frame.
	v1 := *snap
	v1.Version, v1.Seq, v1.Buffered = 1, 1, []int{99}
	payload, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), exp.Snapshot...)
	flipped[len(flipped)-1] ^= 0x40
	unknown := *snap
	unknown.Create.Alg = "no-such-engine"
	unknownBytes, err := store.EncodeSnapshot(&unknown)
	if err != nil {
		t.Fatal(err)
	}
	// A job the table lists but neither the buffer nor the engine holds.
	orphan := *snap
	orphan.Jobs = append(append([]store.JobRec(nil), snap.Jobs...), store.JobRec{ID: len(snap.Jobs), Release: 40, Weight: 1})
	orphanBytes, err := store.EncodeSnapshot(&orphan)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		snap []byte
		want string // substring of the error
	}{
		{"buffered ID out of table range", snapFrame(1, payload), "out of table range"},
		{"flipped payload byte", flipped, "checksum mismatch"},
		{"unknown engine", unknownBytes, "unknown engine"},
		{"job held nowhere", orphanBytes, "neither buffered nor held"},
	} {
		bad := ExportedSession{ID: "other", Snapshot: tc.snap}
		var e ErrorResponse
		if status := doJSON(t, "POST", dst.URL+"/v1/sessions/import", bad, &e); status != 400 || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("%s: import status %d %q, want 400 mentioning %q", tc.name, status, e.Error, tc.want)
		}
	}

	if status := doJSON(t, "POST", dst.URL+"/v1/sessions/no-such/export", nil, nil); status != 404 {
		t.Fatalf("export of unknown session: status %d, want 404", status)
	}
}

func TestCreateWithPinnedID(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := mustCreate(t, ts.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: "g-abc-7"})
	if id != "g-abc-7" {
		t.Fatalf("id = %q", id)
	}
	// Duplicates conflict; hostile IDs are rejected before any state.
	if status := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: "g-abc-7"}, nil); status != 409 {
		t.Fatalf("duplicate pinned id: status %d, want 409", status)
	}
	for _, bad := range []string{"..", "a/b", "x y", string(make([]byte, 65))} {
		if status := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: bad}, nil); status != 400 {
			t.Fatalf("hostile id %q: status %d, want 400", bad, status)
		}
	}
	// A pinned ID matching the server's own numbering advances the
	// counter past it instead of colliding later.
	if got := mustCreate(t, ts.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: "s-000500"}); got != "s-000500" {
		t.Fatalf("id = %q", got)
	}
	if got := mustCreate(t, ts.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2"}); got != "s-000501" {
		t.Fatalf("numbered id after pin = %q, want s-000501", got)
	}
}

func TestSessionList(t *testing.T) {
	_, ts := testServer(t, Config{})
	var list SessionListResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); status != 200 || len(list.Sessions) != 0 {
		t.Fatalf("empty list: status %d, %d sessions", status, len(list.Sessions))
	}
	mustCreate(t, ts.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: "b"})
	mustCreate(t, ts.URL, CreateSessionRequest{T: 5, G: 3, Alg: "alg2", ID: "a"})
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); status != 200 {
		t.Fatalf("list: status %d", status)
	}
	if len(list.Sessions) != 2 || list.Sessions[0].ID != "a" || list.Sessions[1].ID != "b" {
		t.Fatalf("list = %+v, want [a b]", list.Sessions)
	}
}

func TestReadyzFlipsOnShutdown(t *testing.T) {
	srv, ts := testServer(t, Config{})
	var ready ReadyResponse
	if status := doJSON(t, "GET", ts.URL+"/readyz", nil, &ready); status != 200 || ready.Status != "ok" {
		t.Fatalf("readyz = %d %+v", status, ready)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if status := doJSON(t, "GET", ts.URL+"/readyz", nil, &ready); status != 503 || ready.Status != "draining" {
		t.Fatalf("readyz after shutdown = %d %+v", status, ready)
	}
	// Liveness keeps answering 200: the process is healthy, just leaving.
	if status := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); status != 200 {
		t.Fatalf("healthz after shutdown = %d", status)
	}
}

// snapFrame frames a snapshot payload as the store does: u32 LE body
// length, u32 LE CRC32C of the body, then the body: format version 1,
// record type 4 (snapshot), u64 LE seq, payload.
func snapFrame(seq uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64([]byte{1, 4}, seq)
	body = append(body, payload...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, body...)
}
