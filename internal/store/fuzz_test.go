package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadRecord throws arbitrary bytes at the record scanner. The
// properties pinned here are recovery's safety contract: scanning never
// panics, never returns a record whose checksum did not verify (the
// valid prefix re-scans cleanly and identically), and always stops with
// a typed reason — nil at a clean end, ErrTornTail or ErrCorrupt
// otherwise — with the valid length never past the first bad byte.
func FuzzReadRecord(f *testing.F) {
	// Seed with well-formed streams so the fuzzer starts from the
	// interesting part of the space, plus canonical corruptions.
	var good []byte
	good = appendRecord(good, recordV1, RecordCreate, 1, []byte(`{"alg":"alg2","t":5,"g":10}`))
	good = appendRecord(good, recordV1, RecordArrivals, 2, []byte(`{"jobs":[{"id":0,"release":0,"weight":3}]}`))
	good = appendRecord(good, recordV1, RecordSteps, 3, []byte(`{"k":4}`))
	f.Add(good)
	f.Add(good[:len(good)-3])          // torn tail
	f.Add(append(good, 0x01, 0x02))    // trailing garbage
	f.Add([]byte{})                    // empty log
	f.Add([]byte{0xff, 0xff, 0xff})    // short header
	f.Add(bytes.Repeat([]byte{0}, 64)) // zero-length body claims
	flipped := append([]byte(nil), good...)
	flipped[recordHeaderLen+bodyPrefixLen] ^= 0xff
	f.Add(flipped)     // checksum mismatch in record 1
	f.Add(binaryLog()) // the version 2 records the store writes
	f.Add(append(good, binaryLog()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, stop := ScanRecords(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		if stop == nil && validLen != len(data) {
			t.Fatalf("clean stop but %d bytes unconsumed", len(data)-validLen)
		}
		if stop != nil && !errors.Is(stop, ErrTornTail) && !errors.Is(stop, ErrCorrupt) {
			t.Fatalf("untyped stop reason: %v", stop)
		}
		// The valid prefix must be self-consistent: re-scanning yields
		// the same records and a clean stop.
		again, againLen, stop2 := ScanRecords(data[:validLen])
		if stop2 != nil || againLen != validLen || len(again) != len(recs) {
			t.Fatalf("valid prefix does not re-scan cleanly: %v len %d vs %d, %d recs vs %d",
				stop2, againLen, validLen, len(again), len(recs))
		}
		for i := range recs {
			if recs[i].Type < RecordCreate || recs[i].Type > RecordSnapshot {
				t.Fatalf("record %d has invalid type %d", i, recs[i].Type)
			}
			if v := recs[i].Version; v != recordV1 && v != recordVersion {
				t.Fatalf("record %d has invalid version %d", i, v)
			}
			if !bytes.Equal(recs[i].Payload, again[i].Payload) || recs[i].Seq != again[i].Seq {
				t.Fatalf("record %d differs across scans", i)
			}
		}
	})
}

// FuzzRecoverSession feeds arbitrary bytes as a session's wal and snap
// files: recovery must never panic and must either produce a session or
// a typed failure, and a second recovery over the (possibly truncated)
// files must succeed without further truncation — truncation converges
// in one pass.
func FuzzRecoverSession(f *testing.F) {
	var good []byte
	good = appendRecord(good, recordV1, RecordCreate, 1, []byte(`{"alg":"alg2","t":5,"g":10}`))
	good = appendRecord(good, recordV1, RecordSteps, 2, []byte(`{"k":4}`))
	f.Add(good, []byte{})
	f.Add(good[:len(good)-1], []byte{})
	f.Add([]byte{}, []byte{})
	f.Add([]byte("garbage"), []byte("garbage"))
	snap, err := encodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	tail := appendRecord(nil, recordV1, RecordSteps, 4, []byte(`{"k":2}`))
	f.Add(tail, appendRecord(nil, recordV1, RecordSnapshot, 3, snap))
	v2 := binaryLog()
	f.Add(v2, []byte{})
	f.Add(v2[:len(v2)-1], []byte{})
	f.Add(append(good, appendRecord(nil, recordVersion, RecordSteps, 3, StepsCommand{K: 2}.appendTo(nil))...), []byte{})
	f.Add(appendRecord(nil, recordVersion, RecordSteps, 4, StepsCommand{K: 2}.appendTo(nil)), appendRecord(nil, recordV1, RecordSnapshot, 3, snap))

	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		s := openTestStore(t, Options{})
		l, err := s.Create("s-000001")
		if err != nil {
			t.Fatal(err)
		}
		l.Abort()
		if err := writeFile(s, walName, wal); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := writeFile(s, snapName, snap); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover errored on fuzz input: %v", err)
		}
		if len(rec.Sessions)+len(rec.Failed) != 1 {
			t.Fatalf("sessions=%d failed=%d, want exactly one outcome", len(rec.Sessions), len(rec.Failed))
		}
		if len(rec.Sessions) == 1 {
			first := rec.Sessions[0]
			first.Log.Close()
			rec2, err := s.Recover()
			if err != nil || len(rec2.Sessions) != 1 {
				t.Fatalf("second recovery failed: %v %+v", err, rec2)
			}
			second := rec2.Sessions[0]
			second.Log.Close()
			if second.Truncated {
				t.Fatal("second recovery truncated again; truncation must converge")
			}
			if len(second.Commands) != len(first.Commands) || second.Log.Seq() != first.Log.Seq() {
				t.Fatalf("recovery not idempotent: %d/%d commands, seq %d/%d",
					len(first.Commands), len(second.Commands), first.Log.Seq(), second.Log.Seq())
			}
		}
	})
}

// FuzzReadSnapshot throws arbitrary payloads, framed as a snapshot
// file, at the snapshot decoder. It must never panic and must fail only
// with ErrCorrupt. A version 2 payload that decodes must re-encode byte
// for byte (the encoding is canonical), and a version 1 payload that
// decodes must survive the upgrade to version 2 unchanged.
func FuzzReadSnapshot(f *testing.F) {
	v2, err := encodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v2[:len(v2)-1])
	v1 := *sampleSnapshot()
	v1.Version, v1.Seq = 1, 7
	payload, err := json.Marshal(&v1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add([]byte{})
	f.Add([]byte(`{"v":1,"seq":7}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := DecodeSnapshot(appendRecord(nil, recordV1, RecordSnapshot, 7, payload))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped failure: %v", err)
			}
			return
		}
		if snap.Seq != 7 {
			t.Fatalf("snapshot seq %d, frame seq 7", snap.Seq)
		}
		again, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if payload[0] != '{' {
			if !bytes.Equal(again, payload) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, payload)
			}
			return
		}
		up, err := DecodeSnapshot(appendRecord(nil, recordV1, RecordSnapshot, 7, again))
		if err != nil {
			t.Fatalf("upgraded v1 snapshot does not decode: %v", err)
		}
		// %v prints nil and empty slices alike, as the formats store them.
		up.Version = snap.Version
		if got, want := fmt.Sprintf("%+v", *up), fmt.Sprintf("%+v", *snap); got != want {
			t.Fatalf("v1 snapshot %s upgraded to %s", want, got)
		}
	})
}

// binaryLog is a create, arrivals and steps record as the store writes
// them: version 2 frames with binary payloads.
func binaryLog() []byte {
	b := appendRecord(nil, recordVersion, RecordCreate, 1, CreateCommand{Alg: "alg2", T: 5, G: 10}.appendTo(nil))
	b = appendRecord(b, recordVersion, RecordArrivals, 2, ArrivalsCommand{Jobs: []JobRec{{ID: 0, Release: 0, Weight: 3}}}.appendTo(nil))
	return appendRecord(b, recordVersion, RecordSteps, 3, StepsCommand{K: 4}.appendTo(nil))
}

func writeFile(s *Store, name string, data []byte) error {
	return os.WriteFile(filepath.Join(s.Root(), "s-000001", name), data, 0o644)
}
