package fleet

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/fault"
	"repro/internal/journal"
)

// Watermarks is the coordinator's per-sensor high-watermark journal: the
// durable record, kept alongside the eventstore, of the highest batch
// sequence applied from each sensor. A batch at or below its sensor's
// watermark has already been ingested — redelivery after a reconnect or a
// coordinator restart is dropped idempotently, which is what turns the wire
// protocol's at-least-once retransmission into exactly-once ingest.
//
// The file is a journal log (see internal/journal) with one record per
// advance; on open the highest record per sensor wins. It compacts to one
// record per sensor when the appended history grows past a threshold. Each
// advance is written and fsynced before the batch is acked, so an ack
// implies the watermark — and therefore the dedup decision — survives even
// power loss. That ordering is load-bearing: once acked, the sensor may
// prune the batch, and a watermark that regressed afterwards would ask for a
// sequence nobody can resend.
type Watermarks struct {
	mu    sync.Mutex
	log   *journal.Log
	marks map[string]uint64
}

var wmMagic = [8]byte{'F', 'W', 'M', 'K', 0x00, 0x01, '\n'}

// wmCompactAt triggers a rewrite once the journal grows past this size.
const wmCompactAt = 1 << 20

// OpenWatermarks opens (creating if needed) the journal in dir — typically
// the eventstore directory, so store and watermarks live or die together.
func OpenWatermarks(dir string) (*Watermarks, error) {
	return OpenWatermarksFS(nil, dir)
}

// OpenWatermarksFS is OpenWatermarks against an explicit filesystem; nil
// means the real one.
func OpenWatermarksFS(fs fault.FS, dir string) (*Watermarks, error) {
	fs = fault.Or(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Watermarks{marks: map[string]uint64{}}
	l, err := journal.Open(fs, filepath.Join(dir, "FLEET-WATERMARKS.log"), wmMagic, journal.MaxRecordLen, func(payload []byte) error {
		return mergeMark(w.marks, payload)
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: watermarks: %w", err)
	}
	w.log = l
	return w, nil
}

// A watermark record is u16-length sensor id | u64 sequence.
func encodeMark(id string, seq uint64) []byte {
	return binfmt.AppendU64(binfmt.AppendString16(nil, id), seq)
}

// mergeMark decodes one record into marks, keeping the max per sensor.
func mergeMark(marks map[string]uint64, payload []byte) error {
	d := binfmt.NewDecoder(payload)
	id, seq := d.String16(), d.U64()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("fleet: watermark record: %w", err)
	}
	if seq > marks[id] {
		marks[id] = seq
	}
	return nil
}

// encodeMarks frames one record per sensor, sorted by sensor id, so equal
// marks always encode to equal bytes.
func encodeMarks(marks map[string]uint64) []byte {
	ids := make([]string, 0, len(marks))
	for id := range marks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf []byte
	for _, id := range ids {
		buf = journal.AppendFrame(buf, encodeMark(id, marks[id]))
	}
	return buf
}

// Get returns the sensor's high watermark (0 if never seen).
func (w *Watermarks) Get(id string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.marks[id]
}

// Advance durably raises the sensor's watermark to seq. Regressions are
// rejected: the caller applies batches in sequence order, so a smaller seq
// means a logic error, not a retry.
func (w *Watermarks) Advance(id string, seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur := w.marks[id]; seq <= cur {
		return fmt.Errorf("fleet: watermark for %s would regress %d -> %d", id, cur, seq)
	}
	// The ack that follows this advance promises the sensor it may prune the
	// batch, so the record must be on disk — not in the page cache — first.
	if err := w.log.AppendSync(journal.AppendFrame(nil, encodeMark(id, seq))); err != nil {
		return fmt.Errorf("fleet: advancing watermark for %s: %w", id, err)
	}
	w.marks[id] = seq
	return w.maybeCompactLocked()
}

// AdvanceAll durably raises several sensors' watermarks with one write and
// one fsync — the group-commit path when the sink has no commit record of
// its own. Entries at or below the current mark are skipped (the committer
// computes a max per sensor, but defensive beats sorry); an empty or fully
// stale map is free.
func (w *Watermarks) AdvanceAll(marks map[string]uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var frames []byte
	for id, seq := range marks {
		if seq > w.marks[id] {
			frames = journal.AppendFrame(frames, encodeMark(id, seq))
		}
	}
	if len(frames) == 0 {
		return nil
	}
	// One fsync covers every sensor in the group — the acks the committer
	// releases next all depend on it.
	if err := w.log.AppendSync(frames); err != nil {
		return fmt.Errorf("fleet: advancing %d watermarks: %w", len(marks), err)
	}
	for id, seq := range marks {
		if seq > w.marks[id] {
			w.marks[id] = seq
		}
	}
	return w.maybeCompactLocked()
}

// maybeCompactLocked rewrites the journal as one record per sensor once it
// has grown past the threshold.
func (w *Watermarks) maybeCompactLocked() error {
	if w.log.Size() < wmCompactAt {
		return nil
	}
	return w.log.Rewrite(encodeMarks(w.marks), w.log.Size())
}

// adopt merges marks into memory without journalling. Used when the marks'
// durability lives elsewhere: recovering them from the eventstore's commit
// record at startup, and tracking them after each commit thereafter.
func (w *Watermarks) adopt(marks map[string]uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, seq := range marks {
		if seq > w.marks[id] {
			w.marks[id] = seq
		}
	}
}

// encodeWith returns the commit-record meta encoding of the current marks
// merged with extra (max per sensor): the journal's framed records, sorted
// by sensor id, without the file magic. Deterministic so an idle commit
// re-encoding unchanged marks is byte-identical and the store's no-op fast
// path can skip the fsync.
func (w *Watermarks) encodeWith(extra map[string]uint64) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	merged := make(map[string]uint64, len(w.marks)+len(extra))
	for id, seq := range w.marks {
		merged[id] = seq
	}
	for id, seq := range extra {
		if seq > merged[id] {
			merged[id] = seq
		}
	}
	return encodeMarks(merged)
}

// decodeMeta parses an encodeWith payload back into marks.
func decodeMeta(b []byte) (map[string]uint64, error) {
	out := map[string]uint64{}
	good, _, err := journal.ScanFrames(b, func(payload []byte) error {
		return mergeMark(out, payload)
	})
	if err != nil {
		return nil, err
	}
	if good != len(b) {
		return nil, fmt.Errorf("fleet: %d stray bytes in watermark commit meta", len(b)-good)
	}
	return out, nil
}

// All returns a copy of every sensor's watermark.
func (w *Watermarks) All() map[string]uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]uint64, len(w.marks))
	for id, seq := range w.marks {
		out[id] = seq
	}
	return out
}

// Sync fsyncs the journal.
func (w *Watermarks) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Sync()
}

// Close syncs and closes the journal.
func (w *Watermarks) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.log.Sync()
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	return err
}
