package replica

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
	"repro/internal/packet"
)

// TestGoldenEncoding pins the SHA-256 of every replica message built from
// fixed inputs, so a codec refactor that moves a byte on the wire fails
// here.
func TestGoldenEncoding(t *testing.T) {
	ev := ids.Event{
		Time:      time.Date(2021, 12, 10, 12, 0, 0, 123456789, time.UTC),
		Src:       packet.Endpoint{Addr: netip.MustParseAddr("203.0.113.9"), Port: 40001},
		Dst:       packet.Endpoint{Addr: netip.MustParseAddr("18.204.7.9"), Port: 443},
		SID:       58722,
		Published: time.Date(2021, 12, 10, 0, 0, 0, 0, time.UTC),
		CVE:       "2021-44228",
		Msg:       "Apache Log4j RCE",
		Bytes:     512,
	}
	as := []eventstore.Amendment{
		{Event: ev, OrigSID: 1, OrigCVE: "2021-45046", Gen: 3},
		{Event: ids.Event{}, Gen: 4},
	}
	h := rhello{Version: ProtocolVersion, ID: "replica-1", progress: progress{Counts: []uint64{5, 0, 1 << 35}, Amends: 2}}
	st := progress{Counts: []uint64{9, 8, 7, 6}, Amends: 1}
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"rhello", h.encode(), "b8ba2d4b9eec147197070d58a893730569ae6539cc0a5a662b5a0b1488ab9879"},
		{"rstate", encodeProgressMsg(msgRState, &st), "84ca889efb9c406b672ee598bf44a9116342a4e6677576b3eef68cabb38f253a"},
		{"rack", encodeProgressMsg(msgRAck, &progress{}), "d0ad429a5d8fafe213f8c3651b4a9788841a59d9dd56434fe3094df2168a693f"},
		{"amends", encodeAmends(as), "a5941a67903919ca3976b323567e536646954e9dccbfac3a135b2f73eba23380"},
		{"amends-empty", encodeAmends(nil), "9ece0c6bddf950b0485283f27a88cf6ebc0a8f5a330b3ef6afd8ecc093e99fff"},
		{"rerr", encodeRErr("replica ahead of coordinator"), "6e517346fd8cd5ab86ff9b7f44385d31b8d5558d7bc05d5be8992a720f2fcf85"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
