package online_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/store"
)

// TestRecoverV1Snapshots is the upgrade gate for the binary snapshot
// format: a data dir whose snapshots were written as version 1, as older
// nodes wrote them (store and engine state both JSON), must recover into
// schedules byte-identical to the same dir with version 2 snapshots and
// to an uncrashed in-memory run.
func TestRecoverV1Snapshots(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewPCG(12, uint64(trial)))
		live := t.TempDir()
		st, err := store.Open(live, store.Options{Fsync: store.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		a := newManager(t, server.Config{Store: st, SnapshotEvery: 3})
		ref := newManager(t, server.Config{})
		d := &traffic{t: t, rng: rng, clocks: make([]int64, len(compatReqs))}
		for _, req := range compatReqs {
			info, err := a.Create(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Create(req); err != nil {
				t.Fatal(err)
			}
			d.ids = append(d.ids, info.ID)
		}
		d.drive(20+rng.IntN(40), a, ref)

		// Every call has returned, so the live dir is quiescent: copy it
		// as kill -9 would leave it, once as is and once downgraded.
		v2Dir, v1Dir := t.TempDir(), t.TempDir()
		copyDir(t, live, v2Dir)
		copyDir(t, live, v1Dir)
		if n := downgradeSnapshots(t, v1Dir); n == 0 {
			t.Fatalf("trial %d: no snapshot to downgrade", trial)
		}
		shutdown(t, a)
		st.Close()

		var recovered []*server.Manager
		for _, dir := range []string{v2Dir, v1Dir} {
			rst, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer rst.Close()
			m := newManager(t, server.Config{Store: rst, SnapshotEvery: 3})
			if m.Len() != len(compatReqs) {
				t.Fatalf("trial %d: %s recovered %d of %d sessions", trial, dir, m.Len(), len(compatReqs))
			}
			recovered = append(recovered, m)
		}
		d.drive(20, append(recovered, ref)...)
		for _, id := range d.ids {
			want := schedule(t, ref, id)
			for v, m := range recovered {
				if got := schedule(t, m, id); got != want {
					t.Fatalf("trial %d: session %s from v%d snapshots diverged\ngot:  %s\nwant: %s", trial, id, 2-v, got, want)
				}
			}
		}
		for _, m := range append(recovered, ref) {
			shutdown(t, m)
		}
	}
}

// compatReqs are the sessions of the compatibility tests and of the
// testdata/v1-datadir fixture, in creation order.
var compatReqs = []server.CreateSessionRequest{
	{Alg: "alg1", T: 5, G: 7},
	{Alg: "alg2", T: 8, G: 20},
	{Alg: "alg2", T: 3, G: 0},
}

// traffic sends random arrivals and steps to the compatReqs sessions ids,
// whose clocks it tracks, the same commands to every manager given.
type traffic struct {
	t      *testing.T
	rng    *rand.Rand
	ids    []string
	clocks []int64
}

func (d *traffic) drive(n int, ms ...*server.Manager) {
	t, rng := d.t, d.rng
	for range n {
		i := rng.IntN(len(d.ids))
		var jobs []server.JobSpec
		var k int64
		if rng.IntN(2) == 0 {
			for range 1 + rng.IntN(3) {
				w := int64(1)
				if compatReqs[i].Alg == "alg2" {
					w = 1 + rng.Int64N(9)
				}
				jobs = append(jobs, server.JobSpec{Release: d.clocks[i] + rng.Int64N(20), Weight: w})
			}
		} else {
			k = 1 + rng.Int64N(12)
			d.clocks[i] += k
		}
		for _, m := range ms {
			s, err := m.Get(d.ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if jobs != nil {
				_, err = s.Arrivals(jobs, nil)
			} else {
				_, err = s.Step(k, 100_000, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// groupCommit is the durable configuration of the v1 data dir test.
var groupCommit = store.Options{Fsync: store.FsyncAlways, GroupCommit: true}

// TestRecoverV1DataDir is the upgrade gate for binary command records.
// testdata/v1-datadir was written under group commit by the release
// before them, with the compatReqs sessions: JSON command records in the
// WALs and in the journal, snapshots downgraded to version 1, and the
// WAL of s-000002 emptied as a power loss leaves it, so only the journal
// still holds that session's tail. It must recover into schedules
// byte-identical to what an uncrashed in-memory run served
// (v1-datadir.schedules.json). Commands after the upgrade are logged as
// version 2 records behind the version 1 ones, in the WALs and in the
// journal; a kill -9 image of that mixed dir must recover byte-identical
// to the live node.
func TestRecoverV1DataDir(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "v1-datadir.schedules.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	live := t.TempDir()
	copyDir(t, filepath.Join("testdata", "v1-datadir"), live)
	st, err := store.Open(live, groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := newManager(t, server.Config{Store: st, SnapshotEvery: 5})
	list := m.List().Sessions
	if len(list) != len(compatReqs) || len(want) != len(compatReqs) {
		t.Fatalf("recovered %d sessions, fixture has %d", len(list), len(want))
	}
	d := &traffic{t: t, rng: rand.New(rand.NewPCG(18, 2))}
	for i, info := range list {
		if info.Alg != compatReqs[i].Alg || info.T != compatReqs[i].T || info.G != compatReqs[i].G {
			t.Fatalf("session %s is %+v, want %+v", info.ID, info, compatReqs[i])
		}
		if got := schedule(t, m, info.ID); got != want[info.ID] {
			t.Fatalf("session %s diverged from the uncrashed run\ngot:  %s\nwant: %s", info.ID, got, want[info.ID])
		}
		d.ids = append(d.ids, info.ID)
		d.clocks = append(d.clocks, info.Now)
	}

	d.drive(30, m)
	crash := t.TempDir()
	copyDir(t, live, crash)
	cst, err := store.Open(crash, groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer cst.Close()
	rm := newManager(t, server.Config{Store: cst, SnapshotEvery: 5})
	for _, id := range d.ids {
		if got, want := schedule(t, rm, id), schedule(t, m, id); got != want {
			t.Fatalf("session %s recovered from the mixed dir diverged\ngot:  %s\nwant: %s", id, got, want)
		}
	}
	shutdown(t, rm)
	shutdown(t, m)
}

// downgradeSnapshots rewrites every snapshot under root as version 1 and
// returns how many it rewrote.
func downgradeSnapshots(t *testing.T, root string) int {
	t.Helper()
	st, err := store.Open(root, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids, err := st.SessionIDs()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, id := range ids {
		path := filepath.Join(root, id, "snap")
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		v1 := *snap
		v1.Version = 1
		if v1.Engine, err = online.StateV1(snap.Engine); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(&v1)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, snapshotFrame(v1.Seq, payload), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// snapshotFrame frames a snapshot payload as the store does: u32 LE body
// length, u32 LE CRC32C of the body, then the body: format version 1,
// record type 4 (snapshot), u64 LE seq, payload.
func snapshotFrame(seq uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64([]byte{1, 4}, seq)
	body = append(body, payload...)
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, body...)
}

func newManager(t *testing.T, cfg server.Config) *server.Manager {
	t.Helper()
	m, err := server.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shutdown(t *testing.T, m *server.Manager) {
	t.Helper()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func schedule(t *testing.T, m *server.Manager, id string) string {
	t.Helper()
	s, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// copyDir copies a store root: session directories and their files, and
// the group journal.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
