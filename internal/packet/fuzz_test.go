package packet

import (
	"reflect"
	"testing"

	"repro/internal/fuzzcorpus"
)

func fuzzDecodeSeeds() [][]byte {
	b := NewBuilder(1)
	frame, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("seed")})
	return [][]byte{
		frame,
		{},
		make([]byte, 64),
	}
}

func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzDecodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decode(data)
		if err != nil {
			return
		}
		// Accepted frames expose consistent views.
		if p.IP.HeaderLen() < 20 {
			t.Fatalf("accepted frame with header length %d", p.IP.HeaderLen())
		}
		_ = p.Flow()
		_ = p.Payload()
	})
}

func fuzzDecodeIntoSeeds() [][]byte {
	b := NewBuilder(1)
	syn, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	push, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Seq: 7, Ack: 3, Flags: FlagPSH | FlagACK, Payload: []byte("GET / HTTP/1.0\r\n")})
	fin, _ := b.Build(Segment{Src: dstEP, Dst: srcEP, Seq: 3, Ack: 23, Flags: FlagFIN | FlagACK})
	return [][]byte{
		syn,
		push,
		fin,
		{},
		syn[:13],  // mid-Ethernet truncation
		push[:20], // mid-IP truncation
		append([]byte(nil), push[:len(push)-4]...), // mid-payload truncation
	}
}

// FuzzDecodeInto cross-checks a reused Packet against a fresh one: the reused
// Packet — deliberately dirtied by a prior successful decode, the way the
// capture front-end reuses it frame after frame — must reach the same
// accept/reject decision and the same decoded views as a fresh decode of the
// same bytes, and must clear its layer pointers on rejection so a stale frame
// cannot masquerade as the current one.
func FuzzDecodeInto(f *testing.F) {
	for _, seed := range fuzzDecodeIntoSeeds() {
		f.Add(seed)
	}
	b := NewBuilder(1)
	dirty, _ := b.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN, Payload: []byte("prior frame")})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, freshErr := decode(data)

		var reused Packet
		if err := DecodeInto(&reused, dirty); err != nil {
			t.Fatalf("decoding the known-good priming frame: %v", err)
		}
		err := DecodeInto(&reused, data)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("fresh decode err=%v but DecodeInto on a reused packet err=%v", freshErr, err)
		}
		if err != nil {
			if reused.Eth != nil || reused.IP != nil || reused.TCP != nil {
				t.Fatal("DecodeInto left stale layer pointers set after an error")
			}
			return
		}
		if !reflect.DeepEqual(*fresh.Eth, *reused.Eth) {
			t.Fatalf("Ethernet views differ:\nfresh  %+v\nreused %+v", *fresh.Eth, *reused.Eth)
		}
		if !reflect.DeepEqual(*fresh.IP, *reused.IP) {
			t.Fatalf("IPv4 views differ:\nfresh  %+v\nreused %+v", *fresh.IP, *reused.IP)
		}
		if !reflect.DeepEqual(*fresh.TCP, *reused.TCP) {
			t.Fatalf("TCP views differ:\nfresh  %+v\nreused %+v", *fresh.TCP, *reused.TCP)
		}
		if fresh.Flow() != reused.Flow() {
			t.Fatalf("flows differ: %v vs %v", fresh.Flow(), reused.Flow())
		}
		if string(fresh.Payload()) != string(reused.Payload()) {
			t.Fatalf("payloads differ: %q vs %q", fresh.Payload(), reused.Payload())
		}
	})
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from
// the same seed lists the fuzz targets f.Add. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzDecode", fuzzDecodeSeeds())
	fuzzcorpus.Write(t, "FuzzDecodeInto", fuzzDecodeIntoSeeds())
}
