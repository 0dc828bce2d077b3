// Package journal is the repository's one durable-log file protocol. Every
// crash-safe log — the event store's shards, amend.log and COMMITS.log, the
// fleet spool and FLEET-WATERMARKS.log, the registry's ruleset.journal and
// digests.log — is the same file:
//
//	8-byte magic header naming the log
//	repeated frames: u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Everything is little-endian. The length prefix plus CRC makes the tail
// self-describing, and one recovery rule holds for every log:
//
//   - an empty file, or a strict prefix of the magic (a crash tore the
//     file's creation), is rewritten as a bare header;
//   - any other header is refused: the file is not this log;
//   - intact frames replay in order until the first short, over-cap or
//     corrupt frame, or until the replay callback returns Stop; the file is
//     truncated there — a torn append costs the torn record, never the log;
//   - except that an intact, CRC-valid frame longer than the log's record
//     cap is real data, not a torn tail: Open refuses it rather than
//     truncate it and everything after it.
//
// Appends are all-or-nothing: a failed write (or, for AppendSync, a failed
// fsync) rolls the file back to the last frame boundary, so the next append
// never lands past garbage that recovery would stop at. A log whose rollback
// itself fails is poisoned and refuses further appends. Compaction is an
// atomic Rewrite: temp file, fsync, rename.
//
// A Log is not safe for concurrent use; its owner serializes calls, except
// that Sync may run concurrently with Append.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/fault"
)

const (
	// HeaderLen is the size of the magic header every log starts with.
	HeaderLen = 8
	// FrameOverhead is the per-frame length+CRC prefix.
	FrameOverhead = 8
	// MaxRecordLen is the default record cap: the largest frame payload
	// ScanFrames accepts. Writers must keep each payload at or below their
	// log's cap, or their own valid frames read back as corruption.
	MaxRecordLen = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.IEEE)

var (
	// Stop, returned by a replay callback, ends recovery at that frame: it
	// and everything after it are dropped like a torn tail.
	Stop = errors.New("journal: stop replay")
	// ErrBadHeader reports a file whose header is not the log's magic.
	ErrBadHeader = errors.New("journal: bad header")
	// ErrOversized reports an intact frame beyond the log's record cap,
	// which recovery refuses to truncate.
	ErrOversized = errors.New("journal: intact frame beyond the record cap")
)

// AppendFrame appends a length+CRC framed record to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// ScanFrames walks AppendFrame records in b, calling fn for each intact
// payload of at most MaxRecordLen bytes. It returns the byte offset of the
// first incomplete, over-cap or corrupt frame — the truncation point for
// crash recovery — and whether the whole buffer was clean. An fn error stops
// the scan at that frame and is returned.
func ScanFrames(b []byte, fn func(payload []byte) error) (good int, clean bool, err error) {
	return scanFrames(b, MaxRecordLen, fn)
}

func scanFrames(b []byte, maxRecord int, fn func(payload []byte) error) (good int, clean bool, err error) {
	off := 0
	for {
		if len(b)-off < FrameOverhead {
			return off, len(b) == off, nil
		}
		length := binary.LittleEndian.Uint32(b[off : off+4])
		sum := binary.LittleEndian.Uint32(b[off+4 : off+8])
		if uint64(length) > uint64(maxRecord) || len(b)-off-FrameOverhead < int(length) {
			return off, false, nil
		}
		payload := b[off+FrameOverhead : off+FrameOverhead+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, false, nil
		}
		if err := fn(payload); err != nil {
			return off, false, err
		}
		off += FrameOverhead + int(length)
	}
}

// oversizedFrame reports whether b begins with a complete, CRC-valid frame
// whose payload exceeds maxRecord. The scan stops at such a frame exactly as
// it stops at a torn tail, but the two must not be treated alike: a torn
// tail is a crashed append, while an intact oversized frame is real data
// whose truncation would silently drop it and every frame after it.
func oversizedFrame(b []byte, maxRecord int) bool {
	if len(b) < FrameOverhead {
		return false
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) <= uint64(maxRecord) || uint64(len(b)-FrameOverhead) < uint64(n) {
		return false
	}
	return crc32.Checksum(b[FrameOverhead:FrameOverhead+int(n)], crcTable) == binary.LittleEndian.Uint32(b[4:8])
}

// Log is an open framed log, positioned for appends.
type Log struct {
	fs        fault.FS
	f         fault.File
	path      string
	magic     [HeaderLen]byte
	maxRecord int
	size      int64 // bytes of header plus intact frames
	bad       error // set when a rollback failed; every later append returns it
}

// Open opens (creating if needed) the log at path and recovers it by the
// package's rule, replaying each intact frame's payload through replay in
// order. replay may return Stop to end recovery at a frame; any other error
// aborts Open. Payloads alias a buffer replay must not retain. maxRecord is
// the log's record cap.
func Open(fs fault.FS, path string, magic [HeaderLen]byte, maxRecord int, replay func(payload []byte) error) (*Log, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, f: f, path: path, magic: magic, maxRecord: maxRecord}
	if err := l.recover(replay); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) recover(replay func(payload []byte) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	switch {
	case len(raw) < HeaderLen && bytes.Equal(raw, l.magic[:len(raw)]):
		// Empty, or a strict prefix of the magic: a crash tore the file's
		// creation before the header fully reached disk. Nothing else can
		// ever have been written, so reinitialize instead of refusing to
		// open (which would wedge every restart until manual cleanup).
		if _, err := l.f.Write(l.magic[:]); err != nil {
			return err
		}
		if err := l.f.Truncate(HeaderLen); err != nil {
			return err
		}
		l.size = HeaderLen
	case len(raw) < HeaderLen || !bytes.Equal(raw[:HeaderLen], l.magic[:]):
		return fmt.Errorf("%w: %s does not start with %q", ErrBadHeader, l.path, l.magic[:])
	default:
		good, _, err := scanFrames(raw[HeaderLen:], l.maxRecord, replay)
		if err != nil && !errors.Is(err, Stop) {
			return fmt.Errorf("journal: %s: %w", l.path, err)
		}
		l.size = int64(HeaderLen + good)
		if l.size < int64(len(raw)) {
			if oversizedFrame(raw[l.size:], l.maxRecord) {
				return fmt.Errorf("%w: %s at offset %d exceeds %d bytes; refusing to truncate", ErrOversized, l.path, l.size, l.maxRecord)
			}
			if err := l.f.Truncate(l.size); err != nil {
				return err
			}
		}
	}
	_, err = l.f.Seek(l.size, io.SeekStart)
	return err
}

// Size returns the log's length: header plus every intact frame.
func (l *Log) Size() int64 { return l.size }

// Append writes frames (one or more AppendFrame records) at the end of the
// log. Durability arrives with the next Sync. On a failed write the log
// rolls back to its previous size.
func (l *Log) Append(frames []byte) error {
	if l.bad != nil {
		return l.bad
	}
	if _, err := l.f.Write(frames); err != nil {
		// A short write (ENOSPC, torn write) leaves a partial frame past size
		// with the handle offset advanced. Without the rollback the next
		// append lands after that garbage and reports success, but recovery
		// stops at the tear and loses it.
		l.RollbackTo(l.size)
		return fmt.Errorf("journal: appending to %s: %w", l.path, err)
	}
	l.size += int64(len(frames))
	return nil
}

// AppendSync is Append then Sync as one step, for logs whose every record
// is a durability promise. A failed fsync rolls the frames back too: the
// record may be only partly on disk, and the next append must not extend a
// chain whose tail is unknown.
func (l *Log) AppendSync(frames []byte) error {
	if err := l.Append(frames); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.RollbackTo(l.size - int64(len(frames)))
		return fmt.Errorf("journal: syncing %s: %w", l.path, err)
	}
	return nil
}

// RollbackTo truncates the log to size, a frame boundary no larger than
// Size, undoing appends that must not stand (the event store's batch that
// failed on a later shard). If the rollback fails the log is poisoned: no
// further append may widen damage whose extent is unknown.
func (l *Log) RollbackTo(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		l.bad = fmt.Errorf("journal: %s poisoned: rollback of failed append: %w", l.path, err)
		return l.bad
	}
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		l.bad = fmt.Errorf("journal: %s poisoned: seek after failed append: %w", l.path, err)
		return l.bad
	}
	l.size = size
	return nil
}

// Sync fsyncs the log.
func (l *Log) Sync() error { return l.f.Sync() }

// Refresh replays frames another process appended past Size and adopts
// them — the cross-process pickup path. Unlike Open it truncates nothing:
// a short or corrupt tail may be a write still in progress.
func (l *Log) Refresh(replay func(payload []byte) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	if int64(len(raw)) <= l.size {
		return nil
	}
	good, _, err := scanFrames(raw[l.size:], l.maxRecord, replay)
	if err != nil && !errors.Is(err, Stop) {
		return fmt.Errorf("journal: %s: %w", l.path, err)
	}
	size := l.size + int64(good)
	if _, err := l.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	l.size = size
	return nil
}

// Rewrite atomically replaces the log with its header, then frames, then a
// byte copy of the current log from offset keepFrom (a frame boundary) to
// its end — compaction either re-encodes what it keeps (frames) or copies a
// retained tail without decoding it. The new file is fsynced before it is
// renamed over the old one: it replaces records already promised durable.
// Every failure path closes and removes the temp file, so a full disk never
// leaks descriptors or strands temp files.
func (l *Log) Rewrite(frames []byte, keepFrom int64) error {
	tmp := l.path + ".tmp"
	head := append(l.magic[:], frames...)
	if err := l.fs.WriteFile(tmp, head, 0o644); err != nil {
		l.fs.Remove(tmp)
		return err
	}
	f, err := l.fs.OpenFile(tmp, os.O_RDWR, 0o644)
	if err != nil {
		l.fs.Remove(tmp)
		return err
	}
	abort := func(err error) error {
		f.Close()
		l.fs.Remove(tmp)
		return err
	}
	size := int64(len(head))
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		return abort(err)
	}
	if tail := l.size - keepFrom; tail > 0 {
		if _, err := io.Copy(f, io.NewSectionReader(l.f, keepFrom, tail)); err != nil {
			return abort(err)
		}
		size += tail
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return abort(err)
	}
	old := l.f
	l.f, l.size = f, size
	return old.Close()
}

// Close closes the log's handle. It does not sync.
func (l *Log) Close() error { return l.f.Close() }

// WriteFileAtomic makes path hold exactly data, or leaves it untouched: it
// writes a temp file, fsyncs it and renames it over path. The fsync before
// the rename is load-bearing — without it a crash shortly after the rename
// can leave an empty file under the final name. On any failure the temp
// file is removed (best effort; a crash can still strand it as path+".tmp").
func WriteFileAtomic(fs fault.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return nil
}
