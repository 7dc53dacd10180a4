package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"calibsched/internal/binenc"
)

// snapshotVersion is the payload version EncodeSnapshot emits. Version 1
// (JSON, engine state base64-encoded inside it) is still read, so data
// dirs from older nodes load; nothing writes it any more.
//
// Version 2 is binary, after the record frame (whose seq is the
// snapshot's):
//
//	u8       version (2)
//	bytes    create.alg        uvarint length + bytes
//	varint   create.t, create.g
//	bytes    engine state      raw, length-prefixed
//	uvarint  job count n, then per job in ID order 0..n-1:
//	         varint release minus the previous job's (0 before the first)
//	         varint weight
//	uvarint  buffered count, then the IDs strictly ascending: the first
//	         as a varint, each later one as a uvarint gap
//
// Job IDs are implicit in table order. A v1 payload starts with '{',
// which no v2 payload does.
const snapshotVersion = 2

// Snapshot captures a session's complete durable state at a log
// position: WAL records with Seq <= Snapshot.Seq are reflected in it
// and skipped on replay. The JSON tags are the v1 file format only;
// migration ships the EncodeSnapshot bytes (server.ExportedSession).
type Snapshot struct {
	Version int    `json:"v"`
	Seq     uint64 `json:"seq"`
	// Create repeats the session's construction parameters so a
	// truncated log needs no create record.
	Create CreateCommand `json:"create"`
	// Engine is the engine's own state encoding (online.Snapshotter),
	// opaque to the store.
	Engine []byte `json:"engine"`
	// Jobs is the full accepted-job table, indexed by ID.
	Jobs []JobRec `json:"jobs"`
	// Buffered lists the IDs of jobs sitting in the arrival buffer
	// (accepted, not yet released to the engine), ascending.
	Buffered []int `json:"buffered"`
}

// check enforces the invariants every snapshot holds, whichever version
// it was read from and before any is written: a dense job table and
// buffered IDs ascending within it.
func (snap *Snapshot) check() error {
	for i, j := range snap.Jobs {
		if j.ID != i {
			return fmt.Errorf("snapshot job table: entry %d has ID %d", i, j.ID)
		}
	}
	for i, id := range snap.Buffered {
		if id < 0 || id >= len(snap.Jobs) {
			return fmt.Errorf("buffered job %d out of table range", id)
		}
		if i > 0 && snap.Buffered[i-1] >= id {
			return fmt.Errorf("buffered IDs not ascending")
		}
	}
	return nil
}

// encodeSnapshot writes snap's v2 payload. It refuses a snapshot that
// fails check rather than renumber its job table.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	if err := snap.check(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+len(snap.Engine)+4*len(snap.Jobs)+2*len(snap.Buffered))
	b = append(b, snapshotVersion)
	b = binenc.AppendBytes(b, []byte(snap.Create.Alg))
	b = binary.AppendVarint(b, snap.Create.T)
	b = binary.AppendVarint(b, snap.Create.G)
	b = binenc.AppendBytes(b, snap.Engine)
	b = binary.AppendUvarint(b, uint64(len(snap.Jobs)))
	var rel int64
	for _, j := range snap.Jobs {
		b = binary.AppendVarint(b, j.Release-rel)
		b = binary.AppendVarint(b, j.Weight)
		rel = j.Release
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Buffered)))
	for i, id := range snap.Buffered {
		// check has verified the order, so AppendID cannot fail.
		b, _ = binenc.AppendID(b, i, snap.Buffered[max(i-1, 0)], id)
	}
	return b, nil
}

// EncodeSnapshot returns the bytes of a snapshot file: one
// RecordSnapshot frame, at snap.Seq, holding the v2 payload. Migration
// ships these bytes as they are.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	payload, err := encodeSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("store: encoding snapshot: %w", err)
	}
	return appendRecord(nil, recordV1, RecordSnapshot, snap.Seq, payload), nil
}

// DecodeSnapshot parses a snapshot file's bytes: one RecordSnapshot
// frame holding a v1 or v2 payload that passes check. Every failure
// wraps ErrCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	rec, n, err := readRecord(data)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot frame: %w", err)
	}
	if rec.Type != RecordSnapshot {
		return nil, fmt.Errorf("%w: snapshot file holds record type %d", ErrCorrupt, rec.Type)
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, len(data)-n)
	}
	var snap *Snapshot
	switch p := rec.Payload; {
	case len(p) == 0:
		return nil, fmt.Errorf("%w: empty snapshot payload", ErrCorrupt)
	case p[0] == '{':
		snap, err = decodeSnapshotV1(rec)
	case p[0] == snapshotVersion:
		snap, err = decodeSnapshotV2(rec)
	default:
		return nil, fmt.Errorf("%w: snapshot version %d", ErrCorrupt, p[0])
	}
	if err != nil {
		return nil, err
	}
	if err := snap.check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

func decodeSnapshotV1(rec Record) (*Snapshot, error) {
	var snap Snapshot
	if err := unmarshalStrict(rec.Payload, &snap); err != nil {
		return nil, fmt.Errorf("store: snapshot payload: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrCorrupt, snap.Version)
	}
	if snap.Seq != rec.Seq {
		return nil, fmt.Errorf("%w: snapshot seq %d != frame seq %d", ErrCorrupt, snap.Seq, rec.Seq)
	}
	return &snap, nil
}

func decodeSnapshotV2(rec Record) (*Snapshot, error) {
	r := binenc.NewReader(rec.Payload[1:]) // after the version byte
	snap := &Snapshot{Version: snapshotVersion, Seq: rec.Seq}
	snap.Create.Alg = string(r.Bytes())
	snap.Create.T = r.Varint()
	snap.Create.G = r.Varint()
	snap.Engine = r.Bytes()
	snap.Jobs = make([]JobRec, r.Count(2))
	var rel int64
	for i := range snap.Jobs {
		rel += r.Varint()
		snap.Jobs[i] = JobRec{ID: i, Release: rel, Weight: r.Varint()}
	}
	if n := r.Count(1); n > 0 {
		snap.Buffered = make([]int, n)
		for i := range snap.Buffered {
			snap.Buffered[i] = r.ID(i, snap.Buffered[max(i-1, 0)])
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// readSnapshot loads and validates a session's snapshot file. A missing
// file returns (nil, nil): the session recovers from the full log.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}
