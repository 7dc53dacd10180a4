package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calibsched/internal/binenc"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Create:   CreateCommand{Alg: "alg2", T: 5, G: 10},
		Engine:   []byte("engine-state"),
		Jobs:     []JobRec{{ID: 0, Release: 4, Weight: 3}, {ID: 1, Release: 2, Weight: 1}, {ID: 2, Release: 9, Weight: 7}},
		Buffered: []int{0, 2},
	}
}

// writeV1Snapshot writes snap as the version 1 file older nodes wrote:
// the JSON of the Snapshot struct, engine state base64-encoded inside.
func writeV1Snapshot(t *testing.T, dir string, seq uint64, snap *Snapshot) {
	t.Helper()
	v1 := *snap
	v1.Version, v1.Seq = 1, seq
	payload, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), appendRecord(nil, recordV1, RecordSnapshot, seq, payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotV1StillRecovers pins the read-only compatibility rule: a
// version 1 snapshot left by an older node recovers to exactly the
// state the same snapshot written as version 2 recovers to.
func TestSnapshotV1StillRecovers(t *testing.T) {
	s := openTestStore(t, Options{Fsync: FsyncAlways})
	for _, id := range []string{"s-000001", "s-000002"} {
		l := writeSession(t, s, id)
		if err := l.WriteSnapshot(sampleSnapshot()); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendSteps(StepsCommand{K: 2}); err != nil {
			t.Fatal(err)
		}
		if id == "s-000002" {
			writeV1Snapshot(t, l.Dir(), 3, sampleSnapshot())
		}
		l.Abort()
	}
	rec := recoverOne(t, s)
	if len(rec.Failed) != 0 || len(rec.Sessions) != 2 {
		t.Fatalf("recovered %d sessions, %d failed: %+v", len(rec.Sessions), len(rec.Failed), rec.Failed)
	}
	v2, v1 := rec.Sessions[0], rec.Sessions[1]
	defer v2.Log.Close()
	defer v1.Log.Close()
	if v2.Snap.Version != 2 || v1.Snap.Version != 1 {
		t.Fatalf("versions read %d and %d, want 2 and 1", v2.Snap.Version, v1.Snap.Version)
	}
	v1.Snap.Version = 2
	if !reflect.DeepEqual(v1.Snap, v2.Snap) {
		t.Fatalf("v1 snapshot recovered as %+v, v2 as %+v", v1.Snap, v2.Snap)
	}
	if !reflect.DeepEqual(v1.Commands, v2.Commands) || v1.Log.Seq() != v2.Log.Seq() {
		t.Fatalf("tails differ: v1 %+v seq %d, v2 %+v seq %d", v1.Commands, v1.Log.Seq(), v2.Commands, v2.Log.Seq())
	}
}

// TestWriteSnapshotRefusesBadTable: the writer never renumbers a job
// table or reorders the buffer; it refuses, leaving the WAL whole.
func TestWriteSnapshotRefusesBadTable(t *testing.T) {
	for name, mut := range map[string]func(*Snapshot){
		"sparse IDs":          func(s *Snapshot) { s.Jobs[1].ID = 5 },
		"buffered descending": func(s *Snapshot) { s.Buffered = []int{2, 0} },
		"buffered past table": func(s *Snapshot) { s.Buffered = []int{3} },
	} {
		s := openTestStore(t, Options{})
		l := writeSession(t, s, "s-000001")
		snap := sampleSnapshot()
		mut(snap)
		if err := l.WriteSnapshot(snap); err == nil {
			t.Errorf("%s: WriteSnapshot succeeded", name)
		}
		if _, err := os.Stat(filepath.Join(l.Dir(), snapName)); !os.IsNotExist(err) {
			t.Errorf("%s: snapshot file written: %v", name, err)
		}
		if fileSize(t, filepath.Join(l.Dir(), walName)) == 0 {
			t.Errorf("%s: wal truncated behind a refused snapshot", name)
		}
		l.Abort()
	}
}

// rawV2 hand-assembles a version 2 payload over a table of n jobs, with
// the buffered section given as raw varints.
func rawV2(n int, buffered ...[]byte) []byte {
	b := []byte{snapshotVersion}
	b = binenc.AppendBytes(b, []byte("alg2"))
	b = binary.AppendVarint(b, 5)
	b = binary.AppendVarint(b, 10)
	b = binenc.AppendBytes(b, []byte("e"))
	b = binary.AppendUvarint(b, uint64(n))
	for range n {
		b = append(b, 2, 2) // release +1, weight 1
	}
	b = binary.AppendUvarint(b, uint64(len(buffered)))
	for _, v := range buffered {
		b = append(b, v...)
	}
	return b
}

// TestSnapshotV2Rejects covers the binary decoder's guards: each input
// must fail as ErrCorrupt, never half-decode.
func TestSnapshotV2Rejects(t *testing.T) {
	good := rawV2(3, []byte{0}, []byte{2}) // buffered 0, 2
	snap, err := DecodeSnapshot(appendRecord(nil, recordV1, RecordSnapshot, 1, good))
	if err != nil {
		t.Fatalf("hand-built payload: %v", err)
	}
	if !reflect.DeepEqual(snap.Buffered, []int{0, 2}) || snap.Jobs[2] != (JobRec{ID: 2, Release: 3, Weight: 1}) {
		t.Fatalf("hand-built payload decoded as %+v", snap)
	}
	for _, tc := range []struct {
		name, payload, msg string
	}{
		{"future version", "\x03", "version 3"},
		{"empty payload", "", "empty"},
		{"truncated varint", string(good[:len(good)-1]) + "\x80", "truncated varint"},
		{"overlong varint", "\x02\x84\x00alg2", "overlong"},
		{"count beyond payload", "\x02\x04alg2\x0a\x14\x00\xff\x01", "exceeds"},
		{"length beyond payload", "\x02\x09alg2", "exceeds"},
		{"trailing bytes", string(good) + "\x00", "trailing"},
		{"buffered gap zero", string(rawV2(3, []byte{2}, []byte{0})), "strictly ascending"},
		{"buffered past table", string(rawV2(3, []byte{0}, []byte{6})), "out of table range"},
		{"buffered negative", string(rawV2(3, []byte{1})), "out of table range"},
	} {
		_, err := DecodeSnapshot(appendRecord(nil, recordV1, RecordSnapshot, 1, []byte(tc.payload)))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
}

// TestSnapshotV2Compact pins what the format is for: the job table
// costs a few bytes per job and the engine state rides unescaped.
func TestSnapshotV2Compact(t *testing.T) {
	snap := &Snapshot{Create: CreateCommand{Alg: "alg2", T: 16, G: 64}, Engine: bytes.Repeat([]byte{0xab}, 1000)}
	for i := range 1000 {
		snap.Jobs = append(snap.Jobs, JobRec{ID: i, Release: int64(4 * i), Weight: int64(1 + i%9)})
	}
	b, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 1000+2*1000+32 {
		t.Fatalf("%d-byte payload for 1000 jobs and a 1000-byte engine state", len(b))
	}
}
