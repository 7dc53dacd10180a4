package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
)

// farID is a job ID far past any job table: an engine that sized its
// per-job state by it would ask for 8 TiB.
const farID = 1 << 40

// idSnapshot is an alg2 session (T = 4, G = 9) at clock 1 with a
// one-job table, whose engine state, in the v1 (JSON) encoding, holds
// job id: started at 0, or still queued. With id 0 it is consistent.
func idSnapshot(t testing.TB, id int, started bool) *store.Snapshot {
	t.Helper()
	engine := fmt.Sprintf(`{"v":1,"alg":"alg2","t":4,"g":9,"now":1,"cal_start":-1,"cal_end":-1,"queue":[{"ID":%d,"Release":0,"Weight":1}]}`, id)
	if started {
		engine = fmt.Sprintf(`{"v":1,"alg":"alg2","t":4,"g":9,"now":1,"cal_start":0,"cal_end":4,"had_interval":true,"interval_flow":1,`+
			`"calendar":[{"Machine":0,"Start":0}],"triggers":[3],"starts":[{"job":%d,"start":0}]}`, id)
	}
	return &store.Snapshot{
		Create: store.CreateCommand{Alg: "alg2", T: 4, G: 9},
		Engine: []byte(engine),
		Jobs:   []store.JobRec{{ID: 0, Release: 0, Weight: 1}},
	}
}

func encodeSnap(t testing.TB, snap *store.Snapshot) []byte {
	t.Helper()
	b, err := store.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestImportRejectsFarJobIDs: an imported snapshot whose engine names a
// started or queued job far past its job table gets a 400, on an
// in-memory and a store-backed node alike; the same snapshot naming job
// 0 imports.
func TestImportRejectsFarJobIDs(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, cfg := range []Config{{}, {Store: st}} {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, started := range []bool{false, true} {
			code, body := serve(t, srv, "POST", "/v1/sessions/import",
				ExportedSession{ID: "far", Snapshot: encodeSnap(t, idSnapshot(t, farID, started))})
			if code != 400 || !strings.Contains(string(body), fmt.Sprint(farID)) {
				t.Fatalf("started=%v durable=%v: import status %d: %s, want 400 naming the ID", started, cfg.Store != nil, code, body)
			}
			code, body = serve(t, srv, "POST", "/v1/sessions/import",
				ExportedSession{ID: "near", Snapshot: encodeSnap(t, idSnapshot(t, 0, started))})
			if code != 201 {
				t.Fatalf("started=%v durable=%v: control import status %d: %s", started, cfg.Store != nil, code, body)
			}
			if code, body := serve(t, srv, "DELETE", "/v1/sessions/near", nil); code != 204 {
				t.Fatalf("delete: status %d: %s", code, body)
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRejectsFarJobIDs: a session directory whose snapshot
// names a started or queued job far past its job table fails boot
// recovery for that session alone; the node boots and serves the rest.
func TestRecoveryRejectsFarJobIDs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for id, snap := range map[string]*store.Snapshot{
		"s-1": idSnapshot(t, farID, true),
		"s-2": idSnapshot(t, farID, false),
		"s-3": idSnapshot(t, 0, true),
	} {
		l, err := st.ImportSession(id, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	if st, err = store.Open(dir, store.Options{Fsync: store.FsyncNone}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	failed := metrics.RecoveryFailed.Value()
	m, err := NewManager(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if got := metrics.RecoveryFailed.Value() - failed; got != 2 {
		t.Errorf("%d sessions failed recovery, want 2", got)
	}
	for id, ok := range map[string]bool{"s-1": false, "s-2": false, "s-3": true} {
		if _, err := m.Get(id); (err == nil) != ok {
			t.Errorf("session %s: Get error %v, want recovered %v", id, err, ok)
		}
	}
	if out, _ := json.Marshal(m.List()); !strings.Contains(string(out), "s-3") {
		t.Errorf("session list %s lacks the recovered s-3", out)
	}
}
