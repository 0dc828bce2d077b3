package eventstore

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
	"repro/internal/journal"
)

func fuzzEventPayloadSeeds() [][]byte {
	evs := goldenEvents()
	event := EncodeEvent(nil, &evs[2])
	amend := EncodeAmendment(nil, &Amendment{Event: evs[0], OrigSID: 1, OrigCVE: "2021-45046", Gen: 3})
	commit := encodeCommitRecord([]int64{4, 0, 9}, []byte("meta"))
	badAddr := append([]byte(nil), event...)
	badAddr[12] = 5 // source address length 5
	return [][]byte{
		{},
		event,
		EncodeEvent(nil, &evs[3]),
		event[:len(event)-1],
		append(append([]byte(nil), event...), 0),
		badAddr,
		amend,
		amend[:len(amend)-8],
		commit,
		commit[:len(commit)-2],
		encodeCommitRecord(nil, nil), // zero shards
		encodeCommitRecord(make([]int64, 1<<16+1), nil), // past the shard cap
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},            // count the bytes cannot hold
	}
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from
// the same seed list the fuzz target f.Adds. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzEventPayloads", fuzzEventPayloadSeeds())
}

// recoverCommit opens a commit journal holding payload as its one record
// and returns the record recovery adopted.
func recoverCommit(t *testing.T, payload []byte) (*commitRecord, error) {
	fs := fault.NewSimFS(1, fault.Profile{})
	file := journal.AppendFrame(append([]byte(nil), commitMagic[:]...), payload)
	if err := fs.WriteFile(commitLogName, file, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openCommitJournal(fs, ".")
	if err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return j.last, nil
}

// FuzzEventPayloads feeds arbitrary bytes to the three record decoders of
// the store: the event payload (also the fleet wire's and the timeline's
// event encoding), the amendment record and the commit record. Decoding
// must never panic or allocate more than a fixed multiple of the input, and
// anything accepted must re-encode and decode to an equal value.
func FuzzEventPayloads(f *testing.F) {
	for _, seed := range fuzzEventPayloadSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev, amend, rec error
		var e ids.Event
		var a Amendment
		var c *commitRecord
		alloc := fuzzcorpus.AllocatedBytes(func() {
			e, ev = DecodeEvent(data)
			a, amend = DecodeAmendment(data)
		})
		if limit := 4*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes as event and amendment allocated %d, limit %d", len(data), alloc, limit)
		}
		alloc = fuzzcorpus.AllocatedBytes(func() { c, rec = recoverCommit(t, data) })
		if limit := 16*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("recovering a %d-byte commit record allocated %d, limit %d", len(data), alloc, limit)
		}

		if ev == nil {
			if back, err := DecodeEvent(EncodeEvent(nil, &e)); err != nil || back != e {
				t.Fatalf("event re-encode: %+v, %v; want %+v", back, err, e)
			}
		}
		if amend == nil {
			if back, err := DecodeAmendment(EncodeAmendment(nil, &a)); err != nil || back != a {
				t.Fatalf("amendment re-encode: %+v, %v; want %+v", back, err, a)
			}
		}
		if rec == nil && c != nil {
			back, err := recoverCommit(t, encodeCommitRecord(c.sizes, c.meta))
			if err != nil || !reflect.DeepEqual(back, c) {
				t.Fatalf("commit record re-encode: %+v, %v; want %+v", back, err, c)
			}
		}
	})
}
