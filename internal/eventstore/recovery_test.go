package eventstore

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
)

// TestLogRecoveryTable runs the shared header/recovery table against the
// store's three logs: a shard, the amendment log and the commit journal.
func TestLogRecoveryTable(t *testing.T) {
	open := func(fs fault.FS, dir string) error {
		st, err := Open(dir, Options{Shards: 1, FS: fs})
		if err != nil {
			return err
		}
		return st.Close()
	}
	ev := testEvent(1)
	amend := Amendment{Event: ev, OrigSID: ev.SID, OrigCVE: ev.CVE, Gen: 1}
	journaltest.RunRecoveryTable(t,
		journaltest.Log{Name: "shard", File: shardName(0), Magic: fileMagic, MaxRecord: journal.MaxRecordLen,
			Record: EncodeEvent(nil, &ev), Open: open},
		journaltest.Log{Name: "amend", File: "amend.log", Magic: amendMagic, MaxRecord: journal.MaxRecordLen,
			Record: EncodeAmendment(nil, &amend), Open: open},
		journaltest.Log{Name: "commits", File: commitLogName, Magic: commitMagic, MaxRecord: journal.MaxRecordLen,
			Record: encodeCommitRecord([]int64{journal.HeaderLen}, nil), Open: open},
	)
}
