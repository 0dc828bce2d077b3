package registry

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/rules"
)

// The ruleset journal is the registry's source of truth: an append-only log
// of ruleset deltas, one entry per publication. Each entry carries a
// monotonic generation number and the delta in the dated-ruleset text format
// (a publication comment per rule), so the journal is greppable with the
// same tooling as the study ruleset and folds back through the one parser
// everything else uses.
//
// The file is a journal log (see internal/journal) with its own record cap:
// a full Talos-scale delta is a few megabytes of text, far beyond the
// default 1 MB bound.
//
//	8-byte magic "RSJRNL\x01\n"
//	payload: u64 generation | dated-ruleset text
//
// Recovery stops at the first torn frame, and also at an entry that does not
// decode or whose generation does not increase (a spliced file) — a crash
// mid-publish costs that publish (the caller re-publishes), never the
// journal.

var journalMagic = [8]byte{'R', 'S', 'J', 'R', 'N', 'L', 0x01, '\n'}

// maxJournalEntry bounds one delta's encoded size. A 48k-rule full snapshot
// in text form is ~6 MB; 64 MB leaves an order of magnitude of headroom
// while still rejecting garbage length prefixes.
const maxJournalEntry = 64 << 20

// journalEntry is one decoded publication.
type journalEntry struct {
	gen   uint64
	delta []rules.DatedRule
}

// rulesetJournal is the open journal file plus its recovered entries' high
// generation.
type rulesetJournal struct {
	log *journal.Log
	gen uint64 // generation of the newest entry (0 = empty journal)
}

// openJournal opens (creating if needed) dir/ruleset.journal, replays every
// intact entry through apply in order, and truncates any torn tail.
func openJournal(fs fault.FS, dir string, apply func(journalEntry)) (*rulesetJournal, error) {
	j := &rulesetJournal{}
	l, err := journal.Open(fs, filepath.Join(dir, "ruleset.journal"), journalMagic, maxJournalEntry, j.replay(apply))
	if err != nil {
		return nil, fmt.Errorf("registry: ruleset journal: %w", err)
	}
	j.log = l
	return j, nil
}

// replay applies one entry. Generations must be strictly increasing; a
// decreasing or repeated generation means the file was spliced, and an
// entry that does not decode cannot be trusted: replay stops at either.
func (j *rulesetJournal) replay(apply func(journalEntry)) func([]byte) error {
	return func(payload []byte) error {
		entry, err := decodeEntry(payload)
		if err != nil || entry.gen <= j.gen {
			return journal.Stop
		}
		j.gen = entry.gen
		if apply != nil {
			apply(entry)
		}
		return nil
	}
}

func decodeEntry(payload []byte) (journalEntry, error) {
	d := binfmt.NewDecoder(payload)
	e := journalEntry{gen: d.U64()}
	if err := d.Err(); err != nil {
		return journalEntry{}, fmt.Errorf("registry: journal entry generation: %w", err)
	}
	parsed, errs := rules.ParseDatedSet(bytes.NewReader(d.Take(d.Len())))
	for _, err := range errs {
		// The journal only ever holds deltas that parsed cleanly at Publish
		// time; an error here means corruption that beat the CRC, or a
		// same-rev conflict from a splice. Either way the entry is not
		// trustworthy.
		return journalEntry{}, fmt.Errorf("registry: journal entry gen %d: %w", e.gen, err)
	}
	e.delta = parsed
	return e, nil
}

// append durably writes one publication: the frame is written and fsynced
// before append returns, so a returned generation is a promise.
func (j *rulesetJournal) append(gen uint64, delta []rules.DatedRule) error {
	var text bytes.Buffer
	if err := rules.WriteDatedRuleset(&text, delta); err != nil {
		return err
	}
	payload := binfmt.AppendU64(make([]byte, 0, 8+text.Len()), gen)
	payload = append(payload, text.Bytes()...)
	if len(payload) > maxJournalEntry {
		return fmt.Errorf("registry: delta of %d bytes exceeds journal entry cap", len(payload))
	}
	frame := journal.AppendFrame(make([]byte, 0, journal.FrameOverhead+len(payload)), payload)
	if err := j.log.AppendSync(frame); err != nil {
		return fmt.Errorf("registry: appending publish: %w", err)
	}
	j.gen = gen
	return nil
}

// tail applies entries another process appended past the open handle — the
// cross-process pickup path (waybackctl publishing into a directory a
// running daemon also has open).
func (j *rulesetJournal) tail(apply func(journalEntry)) error {
	return j.log.Refresh(j.replay(apply))
}

func (j *rulesetJournal) Close() error { return j.log.Close() }
