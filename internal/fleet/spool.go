package fleet

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/journal"
)

// spool is the sensor's durable outbound queue: every batch headed upstream
// is first appended (with its assigned sequence number) to a crash-safe
// journal log (see internal/journal), so a dead coordinator — or a dead
// sensor — loses nothing. Every frame written honors the log's record cap
// (Add splits larger batches), and recovery refuses an intact over-cap frame
// instead of truncating it, so the torn-tail rule can never eat valid
// batches.
//
// Acks only advance an in-memory watermark; the file compacts (rewrites with
// just the unacked suffix) once the acked prefix dominates, so steady-state
// disk use tracks the unacked window, not history.
type spool struct {
	mu      sync.Mutex
	log     *journal.Log
	pending []spoolBatch // unacked, ascending seq
	acked   uint64       // highest acked (and pruned) sequence
	lastSeq uint64       // highest assigned sequence
	// ackedBytes estimates the on-disk bytes belonging to acked batches,
	// the compaction trigger.
	ackedBytes int64
	// encBuf and frameBuf are Add's reusable encode and frame scratch —
	// spooling is once per shipped batch, so per-call allocations here show
	// up directly in sensor throughput.
	encBuf   []byte
	frameBuf []byte
}

type spoolBatch struct {
	seq    uint64
	events []ids.Event
	bytes  int64 // on-disk footprint, for compaction accounting
}

var spoolMagic = [8]byte{'F', 'S', 'P', 'L', 0x00, 0x01, '\n'}

// spoolCompactAt triggers a rewrite once this many acked bytes accumulate.
const spoolCompactAt = 4 << 20

// spoolMaxPayload caps one spooled frame's payload: a larger frame — however
// valid when written — would read back as corruption. Add splits bigger
// appends across consecutive sequence numbers instead.
const spoolMaxPayload = journal.MaxRecordLen

// openSpool opens (creating if needed) the spool log in dir.
func openSpool(fs fault.FS, dir string) (*spool, error) {
	fs = fault.Or(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp := &spool{}
	l, err := journal.Open(fs, filepath.Join(dir, "spool.log"), spoolMagic, spoolMaxPayload, func(payload []byte) error {
		d := binfmt.NewDecoder(payload)
		b := spoolBatch{seq: d.U64(), bytes: int64(journal.FrameOverhead + len(payload))}
		count := d.Count(4)
		if err := d.Err(); err != nil {
			return fmt.Errorf("fleet: spool batch: %w", err)
		}
		var err error
		if b.events, err = decodeEventFrames(d.Take(d.Len()), count); err != nil {
			return fmt.Errorf("fleet: spool batch %d: %w", b.seq, err)
		}
		if b.seq > sp.lastSeq {
			sp.lastSeq = b.seq
		}
		sp.pending = append(sp.pending, b)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: spool: %w", err)
	}
	sp.log = l
	return sp, nil
}

// spool batch payload: u64 seq | u32 count | event frames (see
// appendEventFrames).
func encodeSpoolBatch(seq uint64, events []ids.Event) []byte {
	buf := binfmt.AppendU64(nil, seq)
	buf = binfmt.AppendU32(buf, uint32(len(events)))
	return appendEventFrames(buf, events)
}

// encodeSpoolBatchCapped encodes as many leading events as fit under the
// spoolMaxPayload cap with sequence seq, returning the payload and the
// events left over for the next frame. A single event too large for a frame
// of its own is an error (encoded events are bounded far below the cap by
// their u16-length strings; this guards against a codec change breaking that
// invariant silently).
func encodeSpoolBatchCapped(dst []byte, seq uint64, events []ids.Event) ([]byte, []ids.Event, error) {
	buf := binfmt.AppendU64(dst[:0], seq)
	buf = binfmt.AppendU32(buf, 0) // count, patched below
	var tmp []byte
	n := 0
	for i := range events {
		tmp = eventstore.EncodeEvent(tmp[:0], &events[i])
		if len(buf)+4+len(tmp) > spoolMaxPayload {
			if n == 0 {
				return nil, nil, fmt.Errorf("fleet: event encodes to %d bytes, beyond the %d-byte spool frame cap", len(tmp), spoolMaxPayload)
			}
			break
		}
		buf = binfmt.AppendBytes32(buf, tmp)
		n++
	}
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	return buf, events[n:], nil
}

// Add assigns sequence numbers to events, appends them durably, and returns
// the last assigned sequence. A batch whose encoding would exceed the
// recovery scan limit is split across consecutive sequence numbers, so every
// frame written is one recovery can read back.
func (sp *spool) Add(events []ids.Event) (uint64, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for len(events) > 0 {
		seq := sp.lastSeq + 1
		payload, rest, err := encodeSpoolBatchCapped(sp.encBuf, seq, events)
		if err != nil {
			return 0, err
		}
		sp.encBuf = payload
		frame := journal.AppendFrame(sp.frameBuf[:0], payload)
		sp.frameBuf = frame
		if err := sp.log.Append(frame); err != nil {
			return 0, fmt.Errorf("fleet: spooling batch %d: %w", seq, err)
		}
		// Copy the kept events: pending outlives this call and must not
		// alias a slice the caller still owns.
		n := len(events) - len(rest)
		evs := append([]ids.Event(nil), events[:n]...)
		sp.lastSeq = seq
		sp.pending = append(sp.pending, spoolBatch{seq: seq, events: evs, bytes: int64(len(frame))})
		events = rest
	}
	return sp.lastSeq, nil
}

// AckTo drops every batch with seq <= w. Compaction happens opportunistically
// once acked bytes both pass the threshold and dominate the file, so each
// rewrite retires at least as many bytes as it copies — without the dominance
// check, a deep pending backlog would be re-encoded on every threshold
// crossing, turning acks quadratic.
func (sp *spool) AckTo(w uint64) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if w <= sp.acked {
		return nil
	}
	for len(sp.pending) > 0 && sp.pending[0].seq <= w {
		sp.ackedBytes += sp.pending[0].bytes
		sp.pending = sp.pending[1:]
	}
	if w > sp.acked {
		sp.acked = w
	}
	if w > sp.lastSeq {
		// The coordinator has applied sequences this spool no longer
		// remembers (state lost to a torn tail or a fresh StateDir). Adopt
		// its numbering so freshly assigned sequences never collide with
		// already-applied ones and get dropped as duplicates.
		sp.lastSeq = w
	}
	if sp.ackedBytes >= spoolCompactAt && sp.ackedBytes*2 >= sp.log.Size() {
		return sp.compactLocked()
	}
	return nil
}

// compactLocked rewrites the log with only the unacked suffix. Acks are
// cumulative, so the pending batches are always a contiguous tail of the
// file; the rewrite copies that byte range as-is rather than re-encoding
// every pending event (which made deep-backlog compaction the hottest path
// in the whole shipper).
func (sp *spool) compactLocked() error {
	var pendBytes int64
	for _, b := range sp.pending {
		pendBytes += b.bytes
	}
	if err := sp.log.Rewrite(nil, sp.log.Size()-pendBytes); err != nil {
		return err
	}
	sp.ackedBytes = 0
	return nil
}

// NextAfter returns the first pending batch with seq > after.
func (sp *spool) NextAfter(after uint64) (spoolBatch, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, b := range sp.pending {
		if b.seq > after {
			return b, true
		}
	}
	return spoolBatch{}, false
}

// Depth returns how many batches are spooled but unacked.
func (sp *spool) Depth() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.pending)
}

// LastSeq returns the highest assigned sequence number.
func (sp *spool) LastSeq() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.lastSeq
}

// Acked returns the highest acked sequence number.
func (sp *spool) Acked() uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.acked
}

// Sync fsyncs the log.
func (sp *spool) Sync() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.log.Sync()
}

// Close syncs and closes the log.
func (sp *spool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	err := sp.log.Sync()
	if cerr := sp.log.Close(); err == nil {
		err = cerr
	}
	return err
}
