package eventstore

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
)

// goldenEvents covers every field shape the event codec writes: IPv4, IPv6
// and zero endpoints, a zero time, the year-2090 never-published sentinel,
// an empty CVE and the Ambiguous flag.
func goldenEvents() []ids.Event {
	v6 := ids.Event{
		Time:      time.Date(2022, 6, 2, 13, 14, 15, 999999999, time.UTC),
		Src:       packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::7"), Port: 65535},
		Dst:       packet.Endpoint{Addr: netip.MustParseAddr("2001:db8:1::1"), Port: 8080},
		SID:       1 << 30,
		Published: time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC),
		CVE:       "2022-26134",
		Msg:       "Atlassian Confluence OGNL injection",
		Bytes:     1 << 20,
		Ambiguous: true,
	}
	return []ids.Event{testEvent(0), testEvent(4), v6, {}}
}

// TestGoldenEncoding pins the SHA-256 of every payload the package writes
// from fixed inputs, so a codec refactor that moves an on-disk byte fails
// here rather than in a mismatched recovery.
func TestGoldenEncoding(t *testing.T) {
	evs := goldenEvents()
	var events []byte
	for i := range evs {
		events = EncodeEvent(events, &evs[i])
	}
	amend := Amendment{Event: evs[2], OrigSID: 58722, OrigCVE: "2021-44228", Gen: 7}
	noLabel := Amendment{Event: evs[0], Gen: 1}
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"events", events, "0bfaded88a52bd6767cd60709a243872fd49cf72afe1cfdd1334d77f9d89cfa3"},
		{"amendment", EncodeAmendment(EncodeAmendment(nil, &amend), &noLabel), "d39d75a52a00a66f7b29cdc278dd3111a48e5eef0d593617a7c2f9964a795441"},
		{"commit", encodeCommitRecord([]int64{0, 17, 1 << 40}, []byte("fleet watermarks")), "2b9c57ccc64448634afc96f45c61a8985db46ae60f18a2cd8efacfb2c69ffbde"},
		{"commit-empty-meta", encodeCommitRecord([]int64{3}, nil), "0e4f16439ae51c208f5421e352790e80bdc0f72b6cee4eaee04034578d77145f"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
