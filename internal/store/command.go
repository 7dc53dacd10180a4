package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"calibsched/internal/binenc"
)

// Command payload schemas. These are the persistence wire format; the
// serving layer converts to and from its own request types. All fields
// are exact int64 quantities, matching internal/core's integer model.

// CreateCommand is the payload of a session's first record: everything
// needed to reconstruct a fresh engine.
type CreateCommand struct {
	// Alg names the engine backend (online.EngineNames).
	Alg string `json:"alg"`
	T   int64  `json:"t"`
	G   int64  `json:"g"`
}

// JobRec is one job in an arrivals batch or a snapshot's job table. ID
// is the server-assigned dense job ID; recovery asserts that replay
// reassigns the same IDs (engines break ties on ID, so IDs are part of
// the deterministic state).
type JobRec struct {
	ID      int   `json:"id"`
	Release int64 `json:"release"`
	Weight  int64 `json:"weight"`
}

// ArrivalsCommand is one accepted arrivals batch, in acceptance order.
type ArrivalsCommand struct {
	Jobs []JobRec `json:"jobs"`
}

// StepsCommand advances the session clock K steps.
type StepsCommand struct {
	K int64 `json:"k"`
}

// Command is one decoded WAL entry during recovery: exactly one of the
// pointers is set, per Type.
type Command struct {
	Seq      uint64
	Type     RecordType
	Create   *CreateCommand
	Arrivals *ArrivalsCommand
	Steps    *StepsCommand
}

// Command payload codecs. A command record's frame version (record.go)
// names the codec of its payload. Version 1 payloads are the JSON of the
// schemas above; nothing writes them any more, but WALs and journals of
// older nodes hold them, so they are still read. Version 2 payloads are
// canonical varints, read through internal/binenc like the snapshots:
//
//	create    bytes alg (uvarint length + bytes), varint t, varint g
//	arrivals  uvarint job count, then per job: varint ID minus the
//	          previous job's, varint release minus the previous job's
//	          (both from 0 before the first), varint weight
//	steps     varint k
//
// decodeCommand applies the same checks to both codecs.

func (c CreateCommand) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(c.Alg)))
	b = append(b, c.Alg...)
	b = binary.AppendVarint(b, c.T)
	return binary.AppendVarint(b, c.G)
}

func (c *CreateCommand) readFrom(r *binenc.Reader) {
	c.Alg = string(r.Bytes())
	c.T = r.Varint()
	c.G = r.Varint()
}

func (c ArrivalsCommand) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(c.Jobs)))
	var id, rel int64
	for _, j := range c.Jobs {
		b = binary.AppendVarint(b, int64(j.ID)-id)
		b = binary.AppendVarint(b, j.Release-rel)
		b = binary.AppendVarint(b, j.Weight)
		id, rel = int64(j.ID), j.Release
	}
	return b
}

func (c *ArrivalsCommand) readFrom(r *binenc.Reader) {
	c.Jobs = make([]JobRec, r.Count(3))
	var id, rel int64
	for i := range c.Jobs {
		id += r.Varint()
		rel += r.Varint()
		c.Jobs[i] = JobRec{ID: int(id), Release: rel, Weight: r.Varint()}
	}
}

func (c StepsCommand) appendTo(b []byte) []byte { return binary.AppendVarint(b, c.K) }

func (c *StepsCommand) readFrom(r *binenc.Reader) { c.K = r.Varint() }

// decodeCommand parses a frame's payload per its type, in the codec its
// version names, and checks what every command must satisfy.
func decodeCommand(frame Record) (Command, error) {
	cmd := Command{Seq: frame.Seq, Type: frame.Type}
	switch frame.Type {
	case RecordCreate:
		cmd.Create = &CreateCommand{}
		if err := decodePayload(frame, cmd.Create); err != nil {
			return Command{}, err
		}
		if cmd.Create.Alg == "" || cmd.Create.T < 1 || cmd.Create.G < 0 {
			return Command{}, fmt.Errorf("%w: create record alg=%q t=%d g=%d", ErrCorrupt,
				cmd.Create.Alg, cmd.Create.T, cmd.Create.G)
		}
	case RecordArrivals:
		cmd.Arrivals = &ArrivalsCommand{}
		if err := decodePayload(frame, cmd.Arrivals); err != nil {
			return Command{}, err
		}
		if len(cmd.Arrivals.Jobs) == 0 {
			return Command{}, fmt.Errorf("%w: empty arrivals record", ErrCorrupt)
		}
	case RecordSteps:
		cmd.Steps = &StepsCommand{}
		if err := decodePayload(frame, cmd.Steps); err != nil {
			return Command{}, err
		}
		if cmd.Steps.K < 1 {
			return Command{}, fmt.Errorf("%w: steps record k=%d", ErrCorrupt, cmd.Steps.K)
		}
	default:
		return Command{}, fmt.Errorf("%w: record type %d in wal", ErrCorrupt, frame.Type)
	}
	return cmd, nil
}

// commandPayload is a command schema's version 2 reader.
type commandPayload interface{ readFrom(*binenc.Reader) }

// decodePayload fills p from a command frame's payload: JSON for
// version 1, varints for version 2.
func decodePayload(frame Record, p commandPayload) error {
	if frame.Version == recordV1 {
		return unmarshalStrict(frame.Payload, p)
	}
	r := binenc.NewReader(frame.Payload)
	p.readFrom(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	return nil
}

// unmarshalStrict decodes JSON rejecting unknown fields and trailing
// data, so a payload that passed its checksum but does not match the
// schema (a version skew bug) fails loudly instead of half-applying.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing payload data", ErrCorrupt)
	}
	return nil
}
