package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"calibsched/internal/store"
)

// FuzzImport throws hostile snapshots at POST /v1/sessions/import on an
// in-memory and a store-backed node. An input is a snapshot payload the
// harness frames with a valid CRC, so mutations reach past the checksum
// into the decoders and the session restore; a raw input is posted as
// the whole snap-file bytes instead. Every input must get a 4xx, or a
// 201 after which the session steps, serves its schedule, re-exports,
// and imports again. A session may fail only the way a live one can: on
// int64 overflow in the exact cost arithmetic. Handlers are called
// directly, so a panic anywhere fails the fuzzer.
func FuzzImport(f *testing.F) {
	for _, durable := range []bool{false, true} {
		for _, alg := range []string{"alg1", "alg2"} {
			for _, steps := range []int64{0, 6, 40} {
				frame := fuzzExport(f, durable, alg, steps)
				f.Add(frame[18:], false) // the payload, after header and body prefix
				f.Add(frame, true)
			}
		}
	}
	// A v1 (JSON) snapshot, as older nodes wrote them.
	snap, err := store.DecodeSnapshot(fuzzExport(f, false, "alg2", 6))
	if err != nil {
		f.Fatal(err)
	}
	snap.Version, snap.Seq = 1, 1
	v1, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1, false)
	// Engine states naming a started or a queued job far past the job
	// table, which no restore may size anything by.
	for _, started := range []bool{false, true} {
		f.Add(encodeSnap(f, idSnapshot(f, farID, started))[18:], false)
	}

	nodes := []*Server{fuzzServer(f, false), fuzzServer(f, true)}
	f.Fuzz(func(t *testing.T, snap []byte, raw bool) {
		if !raw {
			snap = snapFrame(1, snap)
		}
		for _, srv := range nodes {
			checkImport(t, srv, snap)
		}
	})
}

// checkImport imports snap as session "fz" and, when accepted, drives
// the session through a step, a schedule read, an export, and a second
// import of that export. It leaves no session behind.
func checkImport(t *testing.T, srv *Server, snap []byte) {
	t.Helper()
	code, body := serve(t, srv, "POST", "/v1/sessions/import", ExportedSession{ID: "fz", Snapshot: snap})
	if code >= 400 && code < 500 {
		return
	}
	if code != 201 {
		t.Fatalf("import: status %d: %s", code, body)
	}
	defer serve(t, srv, "DELETE", "/v1/sessions/fz", nil)
	// ok reports whether an operation succeeded. A failure is allowed
	// only when it names an int64 overflow: from the exact cost sums, or
	// from the sticky broken state an engine overflow leaves behind.
	ok := func(op string, code, want int, body []byte) bool {
		if code != want && !bytes.Contains(body, []byte("overflow")) {
			t.Fatalf("%s: status %d, want %d: %s", op, code, want, body)
		}
		return code == want
	}
	code, body = serve(t, srv, "POST", "/v1/sessions/fz/step", StepRequest{Steps: 64})
	ok("step", code, 200, body)
	code, body = serve(t, srv, "GET", "/v1/sessions/fz/schedule", nil)
	ok("schedule", code, 200, body)
	code, body = serve(t, srv, "POST", "/v1/sessions/fz/export", nil)
	if !ok("export", code, 200, body) {
		return
	}
	var exp ExportedSession
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatalf("decoding export: %v", err)
	}
	serve(t, srv, "DELETE", "/v1/sessions/fz", nil)
	if code, body := serve(t, srv, "POST", "/v1/sessions/import", exp); code != 201 {
		t.Fatalf("re-import of an export: status %d: %s", code, body)
	}
}

// fuzzExport builds a session with buffered future arrivals on a fresh
// node, steps it, and returns its exported snapshot bytes.
func fuzzExport(f *testing.F, durable bool, alg string, steps int64) []byte {
	srv := fuzzServer(f, durable)
	code, body := serve(f, srv, "POST", "/v1/sessions", CreateSessionRequest{T: 4, G: 9, Alg: alg})
	var info SessionInfo
	if code != 201 || json.Unmarshal(body, &info) != nil {
		f.Fatalf("create: status %d: %s", code, body)
	}
	var jobs []JobSpec
	for i := int64(0); i < 12; i++ {
		w := int64(1)
		if alg == "alg2" {
			w = 1 + i%4
		}
		jobs = append(jobs, JobSpec{Release: 3 * i, Weight: w})
	}
	if code, body := serve(f, srv, "POST", "/v1/sessions/"+info.ID+"/arrivals", ArrivalsRequest{Jobs: jobs}); code != 200 {
		f.Fatalf("arrivals: status %d: %s", code, body)
	}
	if steps > 0 {
		if code, body := serve(f, srv, "POST", "/v1/sessions/"+info.ID+"/step", StepRequest{Steps: steps}); code != 200 {
			f.Fatalf("step: status %d: %s", code, body)
		}
	}
	code, body = serve(f, srv, "POST", "/v1/sessions/"+info.ID+"/export", nil)
	var exp ExportedSession
	if code != 200 || json.Unmarshal(body, &exp) != nil {
		f.Fatalf("export: status %d: %s", code, body)
	}
	return exp.Snapshot
}

// fuzzServer builds a server, without a listener, that shuts down with
// the fuzz run; a durable one keeps its sessions in a store without
// fsync.
func fuzzServer(f *testing.F, durable bool) *Server {
	var cfg Config
	if durable {
		st, err := store.Open(f.TempDir(), store.Options{Fsync: store.FsyncNone})
		if err != nil {
			f.Fatal(err)
		}
		cfg.Store = st
	}
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// serve runs one request through the server's handler in-process and
// returns the status and body.
func serve(t testing.TB, srv *Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == nil {
		rd = strings.NewReader("")
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}
