package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/ids"
)

// TestGoldenEncoding pins the SHA-256 of every wire message and spool or
// watermark record the package writes from fixed inputs, so a codec
// refactor that moves a byte on the wire or on disk fails here. Deflate is
// left out: its output belongs to compress/flate, not to this package.
func TestGoldenEncoding(t *testing.T) {
	events := testEvents(t, 12)
	batch := func(seq uint64, evs []ids.Event, codec Codec) []byte {
		b, err := encodeBatch(seq, evs, codec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	spoolCapped, rest, err := encodeSpoolBatchCapped(nil, 9, events)
	if err != nil || len(rest) != 0 {
		t.Fatalf("encodeSpoolBatchCapped: %d left, %v", len(rest), err)
	}
	h := hello{Version: ProtocolVersion, SensorID: "sensor-2", ShardIndex: 2, ShardCount: 3, Codec: CodecSnappy}
	ha := helloAck{Version: ProtocolVersion, Watermark: 1<<40 + 5}
	hb := heartbeat{NextSeq: 77, Spooled: 3, IngestLag: -2}
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"hello", h.encode(), "f05aa7b3ab8126cdf689a4bb26b50def9f41298aff1201a22848ce34c7842bb6"},
		{"hello-ack", ha.encode(), "6c1f303019dbf7b278df5ffdf37d8282d3bf9591f686b73347acf6f0b0d4e1bb"},
		{"batch-raw", batch(41, events, CodecRaw), "091ad7f599006511155ee6bbc8747b20923e32774eb97daf269c33a4a7ae5a21"},
		{"batch-snappy", batch(41, events, CodecSnappy), "d67633da501d74a9c30ddc6b46eb6dab136a9fe2b7425984ac976eefaef5415f"},
		{"batch-empty", batch(1, nil, CodecSnappy), "5edeadab9672041459f50081b4019542291dfadeeb5a1bbcb4850ef74fd0ed02"},
		{"ack", encodeAck(1<<33 + 1), "34aec60eb034045b70391310ee16440c16569afe12e823552ce9f037bfe8c666"},
		{"heartbeat", hb.encode(), "0cf4bfd7a8f40fbc8de15710af7321faf75bce08aa96c73d873aa357dcb17ab6"},
		{"spool-batch", encodeSpoolBatch(9, events), "684027dbc3aa880a5a1c119b42604fd54cd16bc67d9450d87ef383166196998d"},
		{"spool-batch-capped", spoolCapped, "684027dbc3aa880a5a1c119b42604fd54cd16bc67d9450d87ef383166196998d"},
		{"mark", encodeMark("sensor-2", 1<<40+5), "2776ead644a41bf744b9b6cf2e72ae74b57dc4ac631e6256c79dd61b6daf9a19"},
		{"marks", encodeMarks(map[string]uint64{"b": 2, "a": 1, "": 0}), "db7c58749b2e8d270173432a709d3f1e3a2e42d5f2299677ff8f684aa708b8ef"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
