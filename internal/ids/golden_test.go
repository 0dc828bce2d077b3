package ids

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestGoldenEncoding pins the SHA-256 of StatsBuilder.AppendBinary from
// fixed inputs (the timeline checkpoint's 'S' frame), so a codec refactor
// that moves a checkpoint byte fails here.
func TestGoldenEncoding(t *testing.T) {
	at := time.Date(2021, 12, 10, 12, 0, 0, 0, time.UTC)
	sb := NewStatsBuilder()
	sb.AddSessions(40)
	sb.AddAmbiguous(3)
	sb.AddEvents([]Event{
		{Time: at, Src: packet.Endpoint{Addr: netip.MustParseAddr("203.0.113.9")}, CVE: "2021-44228"},
		{Time: at, Src: packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::7")}, CVE: "2022-26134"},
		{Time: at, Src: packet.Endpoint{Addr: netip.MustParseAddr("198.51.100.1")}, CVE: "2021-44228"},
		{Time: at},
	})
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"stats", sb.AppendBinary(nil), "1a47a66583c34988c48bbe401b48ad0bba1f8022831b3092d4651ef1f2dd0390"},
		{"stats-empty", NewStatsBuilder().AppendBinary(nil), "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
