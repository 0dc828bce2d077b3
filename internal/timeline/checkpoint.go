package timeline

import (
	"fmt"
	"time"

	"repro/internal/binfmt"
	"repro/internal/ids"
	"repro/internal/journal"
	"repro/internal/lifecycle"
)

// Aggregate is the mergeable summary a checkpoint persists: scan statistics
// and per-CVE lifecycle accumulators. Both components are commutative
// monoids — insensitive to event order and batching — which is what makes
// checkpoints correct under late-arriving events: a checkpoint covers
// "events in sealed segments [0..k) with Time <= cut" no matter what order
// those events arrived in.
type Aggregate struct {
	Stats *ids.StatsBuilder
	Life  *lifecycle.Builder
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{Stats: ids.NewStatsBuilder(), Life: lifecycle.NewBuilder()}
}

// Add folds a batch of events into the aggregate. rulePub maps rule SIDs to
// their publication times (lifecycle FixReady evidence).
func (a *Aggregate) Add(events []ids.Event, rulePub map[int]time.Time) {
	a.Stats.AddEvents(events)
	a.Life.AddEvents(events, rulePub)
}

// AddOne folds a single event without allocating a slice.
func (a *Aggregate) AddOne(ev ids.Event, rulePub map[int]time.Time) {
	a.Stats.AddEvents([]ids.Event{ev})
	a.Life.AddEvents([]ids.Event{ev}, rulePub)
}

// Clone returns an independent deep copy.
func (a *Aggregate) Clone() *Aggregate {
	return &Aggregate{Stats: a.Stats.Clone(), Life: a.Life.Clone()}
}

// EventCount reports how many events have been folded in.
func (a *Aggregate) EventCount() int { return a.Life.EventCount() }

// On-disk checkpoint format:
//
//	8-byte magic "TLCKP\x00\x01\n"
//	frame 'K': u32 version | u64 seq | u32 k (sealed segments covered)
//	           | cutTime | writtenAt        (i64 sec + u32 nsec each)
//	frame 'S': ids.StatsBuilder binary encoding
//	frame 'L': lifecycle.Builder binary encoding
//
// A checkpoint with segment count k and cut time tc asserts: the aggregate
// covers exactly the events in segments [0..k) — all of them, since tc is
// the running maximum event time over that sealed prefix. AsOf(t) picks the
// newest checkpoint with tc <= t and replays only events in (tc, t] from
// newer segments plus the store's unsealed tail.

var ckptMagic = [8]byte{'T', 'L', 'C', 'K', 'P', 0x00, 0x01, '\n'}

const (
	ckptVersion = 1
	tagCkptHdr  = 'K'
	tagStats    = 'S'
	tagLife     = 'L'
)

func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%06d.ck", seq) }

// ckptMeta is the in-memory handle for one checkpoint; the aggregate itself
// is loaded (and cached) on demand.
type ckptMeta struct {
	Seq       uint64
	K         int // segments [0..K) covered
	Cut       time.Time
	WrittenAt time.Time
	SizeBytes int64
	path      string
}

func encodeCheckpoint(seq uint64, k int, cut, writtenAt time.Time, agg *Aggregate) []byte {
	buf := append([]byte(nil), ckptMagic[:]...)
	hdr := binfmt.AppendU32([]byte{tagCkptHdr}, ckptVersion)
	hdr = binfmt.AppendU64(hdr, seq)
	hdr = binfmt.AppendU32(hdr, uint32(k))
	hdr = binfmt.AppendTime(hdr, cut)
	hdr = binfmt.AppendTime(hdr, writtenAt)
	buf = journal.AppendFrame(buf, hdr)
	buf = journal.AppendFrame(buf, agg.Stats.AppendBinary([]byte{tagStats}))
	buf = journal.AppendFrame(buf, agg.Life.AppendBinary([]byte{tagLife}))
	return buf
}

// parseCheckpoint decodes a checkpoint file. Any malformation is an error;
// the engine treats a bad checkpoint as absent (falling back to the previous
// one) rather than fatal, since losing a checkpoint only costs replay time,
// never correctness.
func parseCheckpoint(path string, raw []byte) (*ckptMeta, *Aggregate, error) {
	if len(raw) < len(ckptMagic) || [8]byte(raw[:8]) != ckptMagic {
		return nil, nil, fmt.Errorf("timeline: %s is not a checkpoint file", path)
	}
	meta := &ckptMeta{path: path, K: -1, SizeBytes: int64(len(raw))}
	agg := &Aggregate{}
	_, clean, err := journal.ScanFrames(raw[len(ckptMagic):], func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		body := payload[1:]
		var err error
		switch payload[0] {
		case tagCkptHdr:
			d := binfmt.NewDecoder(body)
			if v := d.U32(); d.Err() == nil && v != ckptVersion {
				return fmt.Errorf("unsupported checkpoint version %d", v)
			}
			meta.Seq = d.U64()
			meta.K = int(d.U32())
			meta.Cut = d.Time()
			meta.WrittenAt = d.Time()
			if err := d.Finish(); err != nil {
				return fmt.Errorf("checkpoint header: %w", err)
			}
		case tagStats:
			agg.Stats, err = ids.DecodeStatsBuilder(body)
		case tagLife:
			agg.Life, err = lifecycle.DecodeBuilder(body)
		default:
			return fmt.Errorf("unknown frame tag %q", payload[0])
		}
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("timeline: %s: %w", path, err)
	}
	if !clean {
		return nil, nil, fmt.Errorf("timeline: %s: torn frame", path)
	}
	if meta.K < 0 || agg.Stats == nil || agg.Life == nil {
		return nil, nil, fmt.Errorf("timeline: %s: missing frames", path)
	}
	return meta, agg, nil
}
