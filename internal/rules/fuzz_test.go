package rules

import (
	"testing"

	"repro/internal/fuzzcorpus"
)

// Fuzz targets: the parsers must never panic and accepted rules must
// survive a render → reparse cycle.

func fuzzParseSeeds() []string {
	return []string{
		log4shellRule,
		`alert tcp any any -> any 8090 (msg:"x"; content:"|90 90|ab"; nocase; sid:1;)`,
		`alert tcp $HOME_NET ![80,443] <> 10.0.0.0/8 any (msg:"y"; pcre:"/a|b/Ui"; dsize:>10; sid:2;)`,
		`alert udp any any -> any any (msg:"z"; byte_test:4,>,100,0; sid:3;)`,
		`(((((`,
		`alert tcp any any -> any any (content:"\")`,
	}
}

func fuzzParsePortSpecSeeds() []string {
	return []string{"any", "80", "!80", "[80,443,8000:8100]", ":1024", "60000:"}
}

func fuzzParseByteTestSeeds() []string {
	return []string{"4,>,1000,0", "2,!=,0x1F,8,relative,little", "5,=,65535,0,string,dec"}
}

func FuzzParse(f *testing.F) {
	for _, seed := range fuzzParseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		r, err := Parse(text)
		if err != nil {
			return
		}
		// Accepted rules must render and reparse cleanly.
		back, err := Parse(r.Render())
		if err != nil {
			t.Fatalf("render of accepted rule does not reparse: %v\noriginal: %q\nrendered: %q", err, text, r.Render())
		}
		if back.SID != r.SID || len(back.Contents) != len(r.Contents) || len(back.PCREs) != len(r.PCREs) {
			t.Fatalf("render round trip changed structure:\noriginal: %q\nrendered: %q", text, r.Render())
		}
	})
}

func FuzzParsePortSpec(f *testing.F) {
	for _, seed := range fuzzParsePortSpecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParsePortSpec(text)
		if err != nil {
			return
		}
		// Accepted specs round-trip through String.
		back, err := ParsePortSpec(spec.String())
		if err != nil {
			t.Fatalf("String() of accepted spec does not reparse: %q -> %q: %v", text, spec.String(), err)
		}
		for _, p := range []uint16{0, 1, 80, 443, 8090, 65535} {
			if spec.Contains(p) != back.Contains(p) {
				t.Fatalf("round trip changed semantics at port %d: %q -> %q", p, text, spec.String())
			}
		}
	})
}

func FuzzParseByteTest(f *testing.F) {
	for _, seed := range fuzzParseByteTestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		bt, err := ParseByteTest(text)
		if err != nil {
			return
		}
		data := []byte("0123456789abcdef")
		_ = bt.Eval(data, 0) // must not panic
		_ = bt.Eval(nil, 0)
		_ = bt.Eval(data, -100)
	})
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from
// the same seed lists the fuzz targets f.Add. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzParse", fuzzParseSeeds())
	fuzzcorpus.Write(t, "FuzzParsePortSpec", fuzzParsePortSpecSeeds())
	fuzzcorpus.Write(t, "FuzzParseByteTest", fuzzParseByteTestSeeds())
}
