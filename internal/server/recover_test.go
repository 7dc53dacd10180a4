package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"calibsched/internal/store"
)

// groupCommit is the store configuration of the recovery fixture: every
// record reaches the group-commit journal as well as its session WAL.
var groupCommit = store.Options{Fsync: store.FsyncAlways, GroupCommit: true}

// recoveryFixture builds a store root of n sessions covering every state
// boot recovery handles, and returns it with the session IDs in order:
//   - snapshots with WAL tails, and young sessions with no snapshot;
//   - WALs that lost their unsynced bytes to a power loss (emptied, or
//     cut mid-record), whose records only the group journal still holds;
//   - a torn WAL tail the journal does not cover (an unacknowledged
//     write), which recovery truncates;
//   - two sessions with a corrupt snapshot, which the store fails;
//   - one session whose log ends in a CRC-valid record replay rejects,
//     which the manager fails.
func recoveryFixture(t *testing.T, n int) (dir string, ids []string) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir, groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Store: st, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(17, uint64(n)))
	for i := range n {
		alg := "alg2"
		if i%3 == 0 {
			alg = "alg1"
		}
		info, err := m.Create(CreateSessionRequest{Alg: alg, T: 3 + int64(i%5), G: 5 + 3*int64(i%7)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		s, err := m.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		var clock int64
		for op := range i % 13 {
			if op%2 == 0 {
				jobs := make([]JobSpec, 1+rng.IntN(3))
				for j := range jobs {
					w := int64(1)
					if alg == "alg2" {
						w = 1 + int64(rng.IntN(9))
					}
					jobs[j] = JobSpec{Release: clock + int64(rng.IntN(10)), Weight: w}
				}
				if _, err := s.Arrivals(jobs, nil); err != nil {
					t.Fatal(err)
				}
				continue
			}
			k := 1 + int64(rng.IntN(8))
			if _, err := s.Step(k, 100_000, nil); err != nil {
				t.Fatal(err)
			}
			clock += k
		}
	}
	hardKill(m)
	st.Close()

	// Arrivals logged under a job ID replay would not assign.
	if st, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	rs, err := st.RecoverOne(ids[8])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Log.AppendArrivals(store.ArrivalsCommand{Jobs: []store.JobRec{{ID: 1 << 20, Release: 1 << 30, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Log.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var corrupt []string
	torn := ids[5]
	for i, id := range ids {
		sdir := filepath.Join(dir, id)
		wal := filepath.Join(sdir, "wal")
		switch {
		case id == torn:
			appendFile(t, wal, []byte{0x01, 0x02, 0x03})
		case i%4 == 1:
			if err := os.Truncate(wal, 0); err != nil {
				t.Fatal(err)
			}
		case i%4 == 2:
			if fi, err := os.Stat(wal); err == nil && fi.Size() > 3 {
				if err := os.Truncate(wal, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			}
		case i%4 == 3 && len(corrupt) < 2:
			if _, err := os.Stat(filepath.Join(sdir, "snap")); err == nil {
				corrupt = append(corrupt, id)
				if err := os.WriteFile(filepath.Join(sdir, "snap"), []byte("garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(corrupt) < 2 {
		t.Fatalf("fixture has %d snapshotted sessions to corrupt, want 2", len(corrupt))
	}
	if fi, err := os.Stat(filepath.Join(dir, "commit.log")); err != nil || fi.Size() == 0 {
		t.Fatalf("fixture has no group journal to splice (%v)", err)
	}
	return dir, ids
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the regular files under src to a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// bootOutcome is what one boot recovery served: the session IDs it
// reported unrecoverable, in log order, and the GET …/schedule body of
// every session it serves.
type bootOutcome struct {
	failed    []string
	schedules map[string]string
}

// recoverUnder boots a server on dir with GOMAXPROCS set to procs, reads
// every recovered session's schedule over HTTP, and shuts down cleanly.
func recoverUnder(t *testing.T, dir string, procs int) bootOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	st, err := store.Open(dir, groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	logs := &syncBuf{}
	srv, err := New(Config{Store: st, Logger: slog.New(slog.NewJSONHandler(logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	var list SessionListResponse
	if status := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list); status != 200 {
		t.Fatalf("list sessions: %d", status)
	}
	out := bootOutcome{schedules: make(map[string]string)}
	for _, info := range list.Sessions {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("schedule of %s: %d %v", info.ID, resp.StatusCode, err)
		}
		out.schedules[info.ID] = string(body)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			Session string `json:"session"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && strings.HasSuffix(rec.Msg, "directory kept for inspection") {
			out.failed = append(out.failed, rec.Session)
		}
	}
	return out
}

// TestParallelRecoveryDeterministic: boot recovery scans and replays
// sessions in parallel, yet serves exactly what a one-worker recovery
// serves — the same unrecoverable sessions reported in the same order,
// and byte-identical schedules — and a second boot on the recovered
// directory serves the same again.
func TestParallelRecoveryDeterministic(t *testing.T) {
	const n = 36
	dir, ids := recoveryFixture(t, n)
	serial := recoverUnder(t, copyTree(t, dir), 1)
	if len(serial.failed) != 3 || len(serial.schedules) != n-3 {
		t.Fatalf("serial recovery failed %v and serves %d sessions; want 3 failed and %d served",
			serial.failed, len(serial.schedules), n-3)
	}
	if serial.failed[2] != ids[8] {
		t.Fatalf("serial recovery failed %v; want the store's failures, then the replay failure of %s", serial.failed, ids[8])
	}
	for _, id := range ids {
		if _, ok := serial.schedules[id]; !ok && !slices.Contains(serial.failed, id) {
			t.Fatalf("session %s neither served nor reported failed", id)
		}
	}

	parallel := recoverUnder(t, dir, 4)
	if !reflect.DeepEqual(parallel.failed, serial.failed) {
		t.Fatalf("parallel recovery failed %v, serial %v", parallel.failed, serial.failed)
	}
	for id, want := range serial.schedules {
		if got := parallel.schedules[id]; got != want {
			t.Fatalf("session %s: parallel recovery serves\n%s\nserial serves\n%s", id, got, want)
		}
	}
	if len(parallel.schedules) != len(serial.schedules) {
		t.Fatalf("parallel recovery serves %d sessions, serial %d", len(parallel.schedules), len(serial.schedules))
	}

	again := recoverUnder(t, dir, 4)
	if !reflect.DeepEqual(again, parallel) {
		t.Fatalf("second recovery differs: failed %v, %d sessions; first failed %v, %d sessions",
			again.failed, len(again.schedules), parallel.failed, len(parallel.schedules))
	}
}

// TestParallelRecoverySpliceFailure: when one WAL among many cannot take
// its journal frames, boot fails as a whole, the journal is kept
// byte-for-byte for the next boot, and no recovery worker outlives it.
func TestParallelRecoverySpliceFailure(t *testing.T) {
	dir, ids := recoveryFixture(t, 32)
	wal := filepath.Join(dir, ids[17], "wal")
	if err := os.Remove(wal); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(wal, 0o755); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "commit.log")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	st, err := store.Open(dir, groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	goroutines := runtime.NumGoroutine()
	if _, err := NewManager(Config{Store: st}); err == nil || !strings.Contains(err.Error(), "merging journal into session "+ids[17]) {
		t.Fatalf("NewManager = %v, want the merge failure of %s", err, ids[17])
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("journal changed from %d to %d bytes although its merge failed", len(before), len(after))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the failed boot, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
