package replica

import (
	"reflect"
	"testing"

	"repro/internal/eventstore"
	"repro/internal/fuzzcorpus"
	"repro/internal/ids"
)

func fuzzReplicaMessageSeeds() [][]byte {
	h := rhello{Version: ProtocolVersion, ID: "replica-1", progress: progress{Counts: []uint64{5, 0, 9}, Amends: 2}}
	amends := encodeAmends([]eventstore.Amendment{{Event: ids.Event{CVE: "2021-44228", Msg: "m"}, OrigSID: 1, Gen: 3}})
	return [][]byte{
		h.encode(),
		encodeProgressMsg(msgRState, &progress{Counts: []uint64{1, 2}, Amends: 7}),
		encodeProgressMsg(msgRAck, &progress{}),
		amends,
		amends[:len(amends)-3],
		encodeAmends(nil),
		encodeRErr("replica ahead of coordinator"),
		{msgRState, 0xff, 0xff, 0xff, 0xff},  // shard count the bytes cannot hold
		{msgRAmends, 0xff, 0xff, 0xff, 0x7f}, // record count the bytes cannot hold
		{},
	}
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from
// the same seed list the fuzz target f.Adds. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzReplicaMessages", fuzzReplicaMessageSeeds())
}

// FuzzReplicaMessages feeds arbitrary bytes to every replica message
// decoder — each side of a replica connection decodes frames from its
// peer. Decoding must never panic or allocate more than a fixed multiple of
// the frame (an Amends count is bounded by the bytes present, at a worst
// case of one Amendment per 4-byte record prefix), and any message accepted
// must re-encode to one that decodes to an equal value.
func FuzzReplicaMessages(f *testing.F) {
	for _, seed := range fuzzReplicaMessageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			h                rhello
			state, ack       progress
			as               []eventstore.Amendment
			msg              string
			hErr, sErr, aErr error
			asErr, msgErr    error
		)
		alloc := fuzzcorpus.AllocatedBytes(func() {
			h, hErr = decodeRHello(data)
			state, sErr = decodeProgressMsg(data, msgRState, "State")
			ack, aErr = decodeProgressMsg(data, msgRAck, "Ack")
			as, asErr = decodeAmends(data)
			msg, msgErr = decodeRErr(data)
		})
		if limit := 64*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		roundTrip := func(what string, want any, back any, err error) {
			if err != nil || !reflect.DeepEqual(back, want) {
				t.Fatalf("%s re-encode: %+v, %v; want %+v", what, back, err, want)
			}
		}
		if hErr == nil {
			back, err := decodeRHello(h.encode())
			roundTrip("Hello", h, back, err)
		}
		if sErr == nil {
			back, err := decodeProgressMsg(encodeProgressMsg(msgRState, &state), msgRState, "State")
			roundTrip("State", state, back, err)
		}
		if aErr == nil {
			back, err := decodeProgressMsg(encodeProgressMsg(msgRAck, &ack), msgRAck, "Ack")
			roundTrip("Ack", ack, back, err)
		}
		if asErr == nil {
			back, err := decodeAmends(encodeAmends(as))
			roundTrip("Amends", as, back, err)
		}
		if msgErr == nil {
			back, err := decodeRErr(encodeRErr(msg))
			roundTrip("Err", msg, back, err)
		}
	})
}
