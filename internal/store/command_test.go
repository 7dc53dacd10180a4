package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleCommands is one command of each type, with negative and
// non-monotone values so every delta and sign path is encoded.
func sampleCommands() []Command {
	return []Command{
		{Seq: 1, Type: RecordCreate, Create: &CreateCommand{Alg: "alg2", T: 8, G: 0}},
		{Seq: 2, Type: RecordArrivals, Arrivals: &ArrivalsCommand{Jobs: []JobRec{
			{ID: 0, Release: 9, Weight: 3}, {ID: 1, Release: 2, Weight: 1}, {ID: 2, Release: 1 << 40, Weight: 7},
		}}},
		{Seq: 3, Type: RecordSteps, Steps: &StepsCommand{K: 1 << 33}},
	}
}

// frameOf encodes cmd as a record of the given version.
func frameOf(t *testing.T, version byte, cmd Command) Record {
	t.Helper()
	var payload []byte
	var v any
	switch cmd.Type {
	case RecordCreate:
		payload, v = cmd.Create.appendTo(nil), cmd.Create
	case RecordArrivals:
		payload, v = cmd.Arrivals.appendTo(nil), cmd.Arrivals
	case RecordSteps:
		payload, v = cmd.Steps.appendTo(nil), cmd.Steps
	}
	if version == recordV1 {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	rec, _, err := readRecord(appendRecord(nil, version, cmd.Type, cmd.Seq, payload))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestCommandCodecs: both payload codecs decode every command type to
// the command that was encoded.
func TestCommandCodecs(t *testing.T) {
	for _, version := range []byte{recordV1, recordVersion} {
		for _, want := range sampleCommands() {
			got, err := decodeCommand(frameOf(t, version, want))
			if err != nil {
				t.Fatalf("v%d %d: %v", version, want.Type, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d round trip: got %+v, want %+v", version, got, want)
			}
		}
	}
}

// TestCommandCodecRejects: the binary decoder accepts only the canonical
// encoding, and both codecs enforce the same command checks.
func TestCommandCodecRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     RecordType
		payload []byte
	}{
		{"overlong varint", RecordSteps, []byte{0x82, 0x00}},
		{"trailing bytes", RecordSteps, []byte{0x02, 0x00}},
		{"truncated varint", RecordSteps, []byte{0x82}},
		{"empty payload", RecordSteps, nil},
		{"k = 0", RecordSteps, []byte{0x00}},
		{"k < 0", RecordSteps, []byte{0x01}},
		{"zero-job arrivals", RecordArrivals, []byte{0x00}},
		{"job count past the payload", RecordArrivals, []byte{0x02, 0x00, 0x00, 0x02}},
		{"truncated job", RecordArrivals, []byte{0x01, 0x00, 0x00}},
		{"arrivals trailing bytes", RecordArrivals, []byte{0x01, 0x00, 0x00, 0x02, 0x00}},
		{"empty alg", RecordCreate, []byte{0x00, 0x02, 0x00}},
		{"t < 1", RecordCreate, []byte{0x01, 'a', 0x00, 0x00}},
		{"g < 0", RecordCreate, []byte{0x01, 'a', 0x02, 0x01}},
		{"alg past the payload", RecordCreate, []byte{0x05, 'a', 0x02, 0x00}},
		{"create trailing bytes", RecordCreate, []byte{0x01, 'a', 0x02, 0x00, 0x00}},
		{"snapshot type in wal", RecordSnapshot, []byte{0x02}},
	} {
		rec := Record{Version: recordVersion, Type: tc.typ, Seq: 1, Payload: tc.payload}
		if _, err := decodeCommand(rec); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeCommand = %v, want ErrCorrupt", tc.name, err)
		}
	}
	for _, tc := range []struct {
		typ     RecordType
		payload string
	}{
		{RecordSteps, `{"k":0}`},
		{RecordArrivals, `{"jobs":[]}`},
		{RecordCreate, `{"alg":"","t":1,"g":0}`},
		{RecordCreate, `{"alg":"a","t":0,"g":0}`},
		{RecordCreate, `{"alg":"a","t":1,"g":-1}`},
		{RecordSteps, `{"k":1,"x":2}`},
	} {
		rec := Record{Version: recordV1, Type: tc.typ, Seq: 1, Payload: []byte(tc.payload)}
		if _, err := decodeCommand(rec); !errors.Is(err, ErrCorrupt) {
			t.Errorf("v1 %s: decodeCommand = %v, want ErrCorrupt", tc.payload, err)
		}
	}
	if _, _, err := readRecord(appendRecord(nil, 3, RecordSteps, 1, []byte{0x02})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version 3 frame: readRecord = %v, want ErrCorrupt", err)
	}
}

// TestBinaryRecordsSmaller: the binary codec is what the store writes,
// and it is several times smaller than the JSON it replaced.
func TestBinaryRecordsSmaller(t *testing.T) {
	cmd := Command{Seq: 2, Type: RecordArrivals, Arrivals: &ArrivalsCommand{}}
	for i := range 8 {
		cmd.Arrivals.Jobs = append(cmd.Arrivals.Jobs, JobRec{ID: 100 + i, Release: 5000 + int64(i%3), Weight: 1 + int64(i%9)})
	}
	v1, v2 := frameOf(t, recordV1, cmd), frameOf(t, recordVersion, cmd)
	if 3*len(v2.Payload) > len(v1.Payload) {
		t.Fatalf("binary arrivals payload is %d bytes, JSON %d", len(v2.Payload), len(v1.Payload))
	}
	s := openTestStore(t, Options{})
	l := writeSession(t, s, "s-000001")
	defer l.Close()
	data, err := os.ReadFile(filepath.Join(l.Dir(), walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, stop := ScanRecords(data)
	if stop != nil || len(recs) != 3 {
		t.Fatalf("scanned %d records, stop %v", len(recs), stop)
	}
	for _, r := range recs {
		if r.Version != recordVersion {
			t.Fatalf("record %d written at version %d, want %d", r.Seq, r.Version, recordVersion)
		}
	}
}

// TestMixedVersionWal: a WAL written by a JSON-record release and
// continued by this one holds version 1 records followed by version 2
// records; recovery replays all of them in order, and a journal whose
// entries wrap version 1 frames still restores a WAL that lost them.
func TestMixedVersionWal(t *testing.T) {
	cmds := sampleCommands()
	s := openTestStore(t, Options{})
	l, err := s.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	l.Abort()
	var old []byte
	for _, cmd := range cmds {
		old = appendRecord(old, recordV1, cmd.Type, cmd.Seq, frameOf(t, recordV1, cmd).Payload)
	}
	if err := writeFile(s, walName, old); err != nil {
		t.Fatal(err)
	}
	rs := recoverOne(t, s).Sessions[0]
	more := []Command{
		{Seq: 4, Type: RecordSteps, Steps: &StepsCommand{K: 2}},
		{Seq: 5, Type: RecordArrivals, Arrivals: &ArrivalsCommand{Jobs: []JobRec{{ID: 3, Release: 9, Weight: 2}}}},
	}
	if _, err := rs.Log.AppendSteps(*more[0].Steps); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Log.AppendArrivals(*more[1].Arrivals); err != nil {
		t.Fatal(err)
	}
	if err := rs.Log.Close(); err != nil {
		t.Fatal(err)
	}
	rs = recoverOne(t, s).Sessions[0]
	rs.Log.Close()
	want := append(cmds[1:], more...)
	if rs.Create != *cmds[0].Create || !reflect.DeepEqual(rs.Commands, want) {
		t.Fatalf("mixed wal recovered %+v %+v, want %+v %+v", rs.Create, rs.Commands, *cmds[0].Create, want)
	}

	// The journal of a JSON-record release: its entries wrap version 1
	// frames, which the power-lost WAL no longer holds.
	g := openTestStore(t, Options{Fsync: FsyncAlways, GroupCommit: true})
	defer g.Close()
	l, err = g.Create("s-000001")
	if err != nil {
		t.Fatal(err)
	}
	l.Abort()
	var journal []byte
	for i, cmd := range cmds {
		frame := appendRecord(nil, recordV1, cmd.Type, cmd.Seq, frameOf(t, recordV1, cmd).Payload)
		journal = appendGroupEntry(journal, uint64(i+1), "s-000001", frame)
	}
	if err := os.WriteFile(filepath.Join(g.Root(), journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	rs = recoverOne(t, g).Sessions[0]
	defer rs.Log.Close()
	if rs.Create != *cmds[0].Create || !reflect.DeepEqual(rs.Commands, cmds[1:]) {
		t.Fatalf("v1 journal restored %+v %+v, want %+v %+v", rs.Create, rs.Commands, *cmds[0].Create, cmds[1:])
	}
}
