package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// walMagic heads every WAL file. KKWAL002 added the per-record sequence
// number; files with older magics are rejected loudly instead of misparsed.
var walMagic = []byte("KKWAL002")

// WAL is the append-only command journal. Each record is framed as
// [uint32 length][uint64 seq][payload][uint32 crc32(seq‖payload)], so a
// crash mid-append leaves a torn tail that replay detects and drops instead
// of misparsing. seq is the record's 1-based position in the journal: the
// log is never reset, so sequence numbers start at 1 and are contiguous for
// the life of the state directory.
type WAL struct {
	f journalFile
	// lastSeq is the sequence number of the last intact record; Append
	// assigns lastSeq+1.
	lastSeq uint64
	// size is the byte length of the intact journal: the header plus every
	// acknowledged record. A failed append is rolled back to it.
	size int64
	// broken is set when a failed append could not be rolled back; every
	// later Append returns it, since the file may end in a frame nobody
	// acknowledged.
	broken error
}

// journalFile is the part of *os.File the journal writes through.
type journalFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openWAL opens (creating if absent) the log at path for appending. An
// empty file gets the magic header; an existing file is scanned and a torn
// tail — the signature of a crash mid-append — is truncated back to the
// intact prefix so later appends extend valid records, never garbage. That
// is the only truncation the journal ever sees.
func openWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f, size: int64(len(walMagic))}
	if info.Size() == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: write wal header: %w", err)
		}
		return w, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: scan wal: %w", err)
	}
	recs, validLen, torn, err := scanWAL(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	if torn {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: drop torn wal tail: %w", err)
		}
		if _, err := f.Seek(int64(validLen), io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: drop torn wal tail: %w", err)
		}
	}
	if n := len(recs); n > 0 {
		w.lastSeq = recs[n-1].Seq
	}
	w.size = int64(validLen)
	return w, nil
}

// Append frames, writes and fsyncs one record, assigning it the next
// sequence number. The fsync per record is what lets a checkpoint trust
// that every command it counts is already in the journal. A failed write or
// fsync is rolled back by truncating to the intact length, so the next
// record reuses the sequence number and no unacknowledged frame is left for
// replay to find. If the rollback fails too, the WAL refuses every later
// Append until it is reopened.
func (w *WAL) Append(rec Record) error {
	if w.broken != nil {
		return w.broken
	}
	if err := rec.validate(); err != nil {
		return err
	}
	rec.Seq = w.lastSeq + 1
	payload := appendRecord(nil, rec)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint64(frame, rec.Seq)
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	if _, err := w.f.Write(frame); err != nil {
		return w.rollback(fmt.Errorf("persist: wal append: %w", err))
	}
	mWALFsyncs.Inc()
	if err := w.f.Sync(); err != nil {
		return w.rollback(fmt.Errorf("persist: wal fsync: %w", err))
	}
	w.lastSeq = rec.Seq
	w.size += int64(len(frame))
	return nil
}

// rollback drops whatever a failed Append left past the intact length and
// returns cause; if that fails, the WAL is marked broken.
func (w *WAL) rollback(cause error) error {
	err := w.f.Truncate(w.size)
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.broken = fmt.Errorf("persist: wal unusable after a failed append (%v) could not be rolled back: %w", cause, err)
		return w.broken
	}
	return cause
}

// Close closes the log. Every appended record is already on stable storage.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// DecodeWAL replays a WAL image. A torn tail — a final record cut short or
// failing its CRC, the signature of a crash mid-append — terminates the
// replay cleanly: the intact prefix is returned with torn=true. Corruption
// is indistinguishable from tearing at the final record, so both surface
// the same way; an error is returned only for a file too short to carry
// the magic header or carrying the wrong one.
func DecodeWAL(data []byte) (recs []Record, torn bool, err error) {
	recs, _, torn, err = scanWAL(data)
	return recs, torn, err
}

// scanWAL is DecodeWAL plus the byte length of the intact prefix, which
// openWAL uses to truncate a torn tail before appending. Sequence numbers
// must be strictly increasing; a regression reads as tearing at that frame.
func scanWAL(data []byte) (recs []Record, validLen int, torn bool, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, false, fmt.Errorf("persist: not a WAL file (bad magic)")
	}
	off := len(walMagic)
	var lastSeq uint64
	for off < len(data) {
		if off+4 > len(data) {
			return recs, off, true, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < 1 || off+4+8+n+4 > len(data) {
			return recs, off, true, nil
		}
		seq := binary.LittleEndian.Uint64(data[off+4 : off+12])
		payload := data[off+12 : off+12+n]
		sum := binary.LittleEndian.Uint32(data[off+12+n : off+16+n])
		if crc32.ChecksumIEEE(data[off+4:off+12+n]) != sum {
			return recs, off, true, nil
		}
		if seq <= lastSeq {
			return recs, off, true, nil
		}
		r := &reader{b: payload}
		rec, derr := decodeRecordPayload(r)
		if derr != nil || r.done() != nil {
			return recs, off, true, nil
		}
		rec.Seq = seq
		lastSeq = seq
		recs = append(recs, rec)
		off += 16 + n
	}
	return recs, off, false, nil
}
