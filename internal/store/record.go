package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL record framing. Every record is:
//
//	offset 0  uint32 LE  length of body
//	offset 4  uint32 LE  CRC32C (Castagnoli) of body
//	offset 8  body:
//	          [0]    uint8      format version (recordV1 or recordVersion)
//	          [1]    uint8      record type
//	          [2:10] uint64 LE  sequence number, strictly increasing
//	          [10:]  payload    type-specific; for a command record, in
//	                            the codec the version names (command.go)
//
// The CRC covers the whole body, so a flipped bit anywhere — version,
// type, seq, or payload — is detected. Scanning stops at the first
// record that is incomplete (torn tail from a crash mid-write) or
// checksum-invalid; the valid prefix is what recovery serves, and the
// file is truncated there so the bad bytes never resurface.

// RecordType tags what command a record carries.
type RecordType uint8

const (
	// RecordCreate is the session's first record: engine spec, T, G.
	RecordCreate RecordType = 1
	// RecordArrivals is one accepted arrivals batch.
	RecordArrivals RecordType = 2
	// RecordSteps is one step command (k steps simulated).
	RecordSteps RecordType = 3
	// RecordSnapshot frames the snapshot file's single record; it never
	// appears in the WAL itself.
	RecordSnapshot RecordType = 4
	// RecordGroupEntry frames one group-commit journal entry. It appears
	// only in the store-level commit.log, never in a session WAL. Its
	// payload is [uint16 LE sid length][sid][complete session record
	// frame] — the inner frame is byte-identical to what the session WAL
	// received, so recovery can splice it straight in. An entry with no
	// inner frame is a tombstone: Store.Remove commits one so recovery
	// drops every earlier entry of that session ID.
	RecordGroupEntry RecordType = 5
)

// Frame versions; readers reject any other. The version of a command
// record names its payload codec (command.go).
const (
	// recordV1 command payloads are JSON: still read, no longer written.
	// Snapshot frames and journal entries, whose payloads carry their
	// own format, are still written at version 1, so their bytes are
	// what earlier releases wrote.
	recordV1 = 1
	// recordVersion is what command records are written at: binary
	// payloads. A release older than this codec stops a WAL's scan at
	// the first such record, as at a corrupt tail, so a data dir cannot
	// be downgraded past it.
	recordVersion = 2
)

const (
	recordHeaderLen = 8  // length + crc
	bodyPrefixLen   = 10 // version + type + seq
	// maxRecordLen bounds a single record so a corrupt length prefix
	// cannot demand an absurd allocation. The largest legitimate record
	// is an arrivals batch bounded by the server's buffer cap, far
	// below this.
	maxRecordLen = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a structurally present but invalid record: checksum
// mismatch, unknown version or type, or an absurd length.
var ErrCorrupt = errors.New("store: corrupt record")

// ErrTornTail marks an incomplete record at the end of a log — the
// expected shape after a crash mid-append.
var ErrTornTail = errors.New("store: torn record at end of log")

// Record is one decoded WAL frame.
type Record struct {
	Version byte
	Type    RecordType
	Seq     uint64
	Payload []byte
}

// appendRecord encodes one record onto buf and returns the extended
// slice. The body is framed directly into buf with the CRC patched in
// afterward, so encoding into a reused scratch buffer with sufficient
// capacity allocates nothing.
func appendRecord(buf []byte, version byte, typ RecordType, seq uint64, payload []byte) []byte {
	base := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyPrefixLen+len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	buf = append(buf, version, byte(typ))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	body := buf[base+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[base+4:], crc32.Checksum(body, crcTable))
	return buf
}

// appendGroupEntry frames one journal entry (a session id plus that
// session's already-framed record) onto buf. Like appendRecord, it
// encodes in place and patches the CRC afterward, so the committer's
// reused journal buffer allocates nothing in steady state.
func appendGroupEntry(buf []byte, seq uint64, sid string, frame []byte) []byte {
	base := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyPrefixLen+2+len(sid)+len(frame)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	buf = append(buf, recordV1, byte(RecordGroupEntry))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sid)))
	buf = append(buf, sid...)
	buf = append(buf, frame...)
	body := buf[base+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[base+4:], crc32.Checksum(body, crcTable))
	return buf
}

// decodeGroupEntry splits a RecordGroupEntry payload into the session
// id and the inner session record frame.
func decodeGroupEntry(payload []byte) (sid string, frame []byte, err error) {
	if len(payload) < 2 {
		return "", nil, fmt.Errorf("%w: group entry too short", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if len(payload) < 2+n {
		return "", nil, fmt.Errorf("%w: group entry sid truncated", ErrCorrupt)
	}
	return string(payload[2 : 2+n]), payload[2+n:], nil
}

// readRecord decodes the record starting at data[0]. It returns the
// record and the number of bytes consumed, or ErrTornTail / ErrCorrupt.
func readRecord(data []byte) (Record, int, error) {
	if len(data) < recordHeaderLen {
		return Record{}, 0, ErrTornTail
	}
	bodyLen := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if bodyLen < bodyPrefixLen || bodyLen > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, bodyLen)
	}
	if uint32(len(data)-recordHeaderLen) < bodyLen {
		return Record{}, 0, ErrTornTail
	}
	body := data[recordHeaderLen : recordHeaderLen+int(bodyLen)]
	if crc32.Checksum(body, crcTable) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if body[0] != recordV1 && body[0] != recordVersion {
		return Record{}, 0, fmt.Errorf("%w: version %d", ErrCorrupt, body[0])
	}
	typ := RecordType(body[1])
	if typ < RecordCreate || typ > RecordGroupEntry {
		return Record{}, 0, fmt.Errorf("%w: type %d", ErrCorrupt, typ)
	}
	return Record{
		Version: body[0],
		Type:    typ,
		Seq:     binary.LittleEndian.Uint64(body[2:]),
		Payload: body[bodyPrefixLen:],
	}, recordHeaderLen + int(bodyLen), nil
}

// ScanRecords decodes records from the start of data until the first
// bad one. It returns the decoded prefix, the byte length of that valid
// prefix, and the reason scanning stopped: nil for a clean end,
// ErrTornTail or ErrCorrupt (wrapped) otherwise. It never panics on any
// input (FuzzReadRecord pins this), and a checksum-invalid record is
// never returned as valid.
func ScanRecords(data []byte) (recs []Record, validLen int, stop error) {
	off := 0
	for off < len(data) {
		rec, n, err := readRecord(data[off:])
		if err != nil {
			return recs, off, err
		}
		// Payloads alias data; copy so callers outlive the mapped file.
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}
