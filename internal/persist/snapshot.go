package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// snapshotMagic versions the container format; a layout change bumps the
// trailing digits and old files are rejected loudly instead of misparsed.
// KKSNAP02 replaced the command-history section with the journal position.
var snapshotMagic = []byte("KKSNAP02")

// Section tags. Each section is [4-byte tag][uint32 length][payload]; the
// CRCF footer carries a CRC32 (IEEE) over every byte before its own tag.
var (
	tagBoot  = [4]byte{'B', 'O', 'O', 'T'}
	tagJrnl  = [4]byte{'J', 'R', 'N', 'L'}
	tagState = [4]byte{'S', 'T', 'A', 'T'}
	tagCRC   = [4]byte{'C', 'R', 'C', 'F'}
)

// Snapshot is one durable control-plane checkpoint: the bootstrap recipe,
// the number of journal records it covers, and the serialized observable
// state those records produce, used to verify a replay. Its size depends on
// the state, not on how long the history is.
type Snapshot struct {
	Boot Bootstrap
	// Covers is the journal position N: replaying records 1..N from Boot
	// lands on State. 0 for snapshots without a journal (knotsd, runs).
	Covers uint64
	State  *State
}

// EncodeSnapshot serializes a snapshot into the versioned, length-prefixed
// section format with a CRC footer.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if snap.State == nil {
		return nil, fmt.Errorf("persist: snapshot without state")
	}
	w := &writer{buf: append([]byte(nil), snapshotMagic...)}

	section := func(tag [4]byte, payload []byte) {
		w.buf = append(w.buf, tag[:]...)
		w.bytes(payload)
	}

	section(tagBoot, mustJSON(snap.Boot))

	section(tagJrnl, binary.LittleEndian.AppendUint64(nil, snap.Covers))

	section(tagState, EncodeState(snap.State))

	sum := crc32.ChecksumIEEE(w.buf)
	w.buf = append(w.buf, tagCRC[:]...)
	w.u32(4)
	w.u32(sum)
	return w.buf, nil
}

// DecodeSnapshot parses and CRC-verifies a snapshot file.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("persist: not a snapshot file (bad magic)")
	}
	r := &reader{b: data, off: len(snapshotMagic)}
	snap := &Snapshot{}
	var sawBoot, sawJrnl, sawState, sawCRC bool
	for r.err == nil && r.off < len(data) {
		tagStart := r.off
		var tag [4]byte
		copy(tag[:], r.take(4, "section tag"))
		payload := r.bytes("section payload")
		if r.err != nil {
			break
		}
		switch tag {
		case tagBoot:
			if err := json.Unmarshal(payload, &snap.Boot); err != nil {
				return nil, fmt.Errorf("persist: decode bootstrap: %w", err)
			}
			sawBoot = true
		case tagJrnl:
			if len(payload) != 8 {
				return nil, fmt.Errorf("persist: malformed journal position")
			}
			snap.Covers = binary.LittleEndian.Uint64(payload)
			sawJrnl = true
		case tagState:
			st, err := DecodeState(payload)
			if err != nil {
				return nil, err
			}
			snap.State = st
			sawState = true
		case tagCRC:
			if len(payload) != 4 {
				return nil, fmt.Errorf("persist: malformed CRC footer")
			}
			want := uint32(payload[0]) | uint32(payload[1])<<8 |
				uint32(payload[2])<<16 | uint32(payload[3])<<24
			if got := crc32.ChecksumIEEE(data[:tagStart]); got != want {
				return nil, fmt.Errorf("persist: snapshot CRC mismatch: file %#x, computed %#x", want, got)
			}
			sawCRC = true
			if r.off != len(data) {
				return nil, fmt.Errorf("persist: %d bytes after CRC footer", len(data)-r.off)
			}
		default:
			return nil, fmt.Errorf("persist: unknown snapshot section %q", tag[:])
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if !sawCRC {
		return nil, fmt.Errorf("persist: snapshot missing CRC footer")
	}
	if !sawBoot || !sawJrnl || !sawState {
		return nil, fmt.Errorf("persist: snapshot missing required sections")
	}
	return snap, nil
}

// appendRecord serializes one record payload: [type][body].
func appendRecord(buf []byte, rec Record) []byte {
	w := &writer{buf: buf}
	switch rec.Type {
	case RecordSubmit:
		w.u8(RecordSubmit)
		w.bytes(rec.Manifest)
	case RecordAdvance:
		w.u8(RecordAdvance)
		w.i64(rec.MS)
	}
	return w.buf
}

// decodeRecordPayload parses one record payload produced by appendRecord.
func decodeRecordPayload(r *reader) (Record, error) {
	switch t := r.u8("record type"); t {
	case RecordSubmit:
		rec := Record{Type: RecordSubmit, Manifest: r.bytes("manifest")}
		if r.err != nil {
			return Record{}, r.err
		}
		return rec, rec.validate()
	case RecordAdvance:
		rec := Record{Type: RecordAdvance, MS: r.i64("advance ms")}
		if r.err != nil {
			return Record{}, r.err
		}
		return rec, rec.validate()
	default:
		if r.err != nil {
			return Record{}, r.err
		}
		return Record{}, fmt.Errorf("persist: unknown record type %d", t)
	}
}
