package eventstore

import (
	"fmt"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/fault"
	"repro/internal/journal"
)

// The commit journal is what turns the store's per-shard fsyncs into one
// atomic durability point. Each Commit appends a single record naming the
// byte size every shard log had when its contents were forced to disk, plus
// an opaque caller payload (the fleet coordinator stores its per-sensor
// watermarks there, so "these events are durable" and "these batches are
// applied" become one record that is either wholly on disk or wholly absent).
//
// On open, the last intact record is the recovery contract: anything a shard
// file holds beyond its committed size is an uncommitted tail — appended,
// maybe even flushed by the page cache, but never promised durable — and is
// truncated away. Without that truncation a crash between append and commit
// could leave events in the store that the commit meta does not cover, and a
// redelivering sensor would apply them twice.
//
// The file is a journal log (see internal/journal). Record payload:
//
//	u32 shardCount | shardCount x u64 committed size | u32 metaLen | meta
//
// shardCount is at least 1 and at most 1<<16.
//
// The journal compacts to its newest record, through journal.Rewrite, once
// it grows past a threshold.

var commitMagic = [8]byte{'E', 'V', 'C', 'M', 'T', 0x00, 0x01, '\n'}

const (
	commitLogName = "COMMITS.log"
	// commitCompactAt triggers a rewrite once the journal grows past this
	// size. Only the newest record matters, so compaction keeps exactly one.
	commitCompactAt = 1 << 20
)

// commitRecord is one journalled durability point.
type commitRecord struct {
	sizes []int64
	meta  []byte
}

type commitJournal struct {
	log  *journal.Log
	last *commitRecord // newest recovered or appended record, nil if none
}

// openCommitJournal opens (creating if needed) the journal in dir and
// recovers the newest intact record, truncating any torn tail.
func openCommitJournal(fs fault.FS, dir string) (*commitJournal, error) {
	j := &commitJournal{}
	l, err := journal.Open(fs, filepath.Join(dir, commitLogName), commitMagic, journal.MaxRecordLen, func(payload []byte) error {
		d := binfmt.NewDecoder(payload)
		n := d.Count(8)
		if d.Err() == nil && (n == 0 || n > 1<<16) {
			return fmt.Errorf("eventstore: commit record declares %d shards", n)
		}
		rec := &commitRecord{sizes: make([]int64, n)}
		for i := range rec.sizes {
			rec.sizes[i] = int64(d.U64())
		}
		rec.meta = append([]byte(nil), d.Bytes32()...)
		if err := d.Finish(); err != nil {
			return fmt.Errorf("eventstore: commit record: %w", err)
		}
		j.last = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("eventstore: commit journal: %w", err)
	}
	j.log = l
	return j, nil
}

func encodeCommitRecord(sizes []int64, meta []byte) []byte {
	buf := binfmt.AppendU32(nil, uint32(len(sizes)))
	for _, n := range sizes {
		buf = binfmt.AppendU64(buf, uint64(n))
	}
	return binfmt.AppendBytes32(buf, meta)
}

// append writes and fsyncs one record, making it the recovery point. The
// record is the durability promise for everything the shard fsyncs just
// covered — it must hit the disk, not the page cache, before the caller acts
// on it (acks a sensor, advances a checkpoint). AppendSync rolls a record
// whose write or fsync failed back out of the chain, so a torn record can
// never sit below a later commit that recovery would then fall short of.
func (j *commitJournal) append(sizes []int64, meta []byte) error {
	rec := &commitRecord{sizes: append([]int64(nil), sizes...), meta: append([]byte(nil), meta...)}
	if err := j.log.AppendSync(journal.AppendFrame(nil, encodeCommitRecord(rec.sizes, rec.meta))); err != nil {
		return fmt.Errorf("eventstore: commit journal: %w", err)
	}
	j.last = rec
	if j.log.Size() >= commitCompactAt {
		return j.compact()
	}
	return nil
}

// compact rewrites the journal as its single newest record.
func (j *commitJournal) compact() error {
	return j.log.Rewrite(journal.AppendFrame(nil, encodeCommitRecord(j.last.sizes, j.last.meta)), j.log.Size())
}

func (j *commitJournal) Close() error {
	return j.log.Close()
}
