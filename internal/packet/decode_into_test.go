package packet

import (
	"bytes"
	"testing"
)

// TestDecodeIntoMatchesDecode holds a reused Packet to a fresh one:
// for the same frame, every decoded field and payload must agree.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	bld := NewBuilder(7)
	frames := [][]byte{}
	for i, payload := range [][]byte{
		[]byte("GET / HTTP/1.0\r\n\r\n"),
		nil,
		bytes.Repeat([]byte("x"), 1000),
	} {
		frame, err := bld.Build(Segment{
			Src: srcEP, Dst: dstEP,
			Seq: uint32(100 * i), Flags: FlagPSH | FlagACK, Payload: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}

	var reused Packet
	for i, frame := range frames {
		want, err := decode(frame)
		if err != nil {
			t.Fatalf("frame %d: fresh decode: %v", i, err)
		}
		if err := DecodeInto(&reused, frame); err != nil {
			t.Fatalf("frame %d: DecodeInto: %v", i, err)
		}
		if reused.Eth == nil || reused.IP == nil || reused.TCP == nil {
			t.Fatalf("frame %d: DecodeInto left nil layer pointers", i)
		}
		if reused.Eth.Dst != want.Eth.Dst || reused.Eth.Src != want.Eth.Src ||
			reused.Eth.EtherType != want.Eth.EtherType {
			t.Errorf("frame %d: ethernet mismatch: %+v vs %+v", i, *reused.Eth, *want.Eth)
		}
		if reused.IP.Src != want.IP.Src || reused.IP.Dst != want.IP.Dst ||
			reused.IP.Length != want.IP.Length || reused.IP.ID != want.IP.ID {
			t.Errorf("frame %d: ipv4 mismatch: %+v vs %+v", i, *reused.IP, *want.IP)
		}
		if reused.TCP.SrcPort != want.TCP.SrcPort || reused.TCP.Seq != want.TCP.Seq ||
			reused.TCP.Flags != want.TCP.Flags {
			t.Errorf("frame %d: tcp mismatch: %+v vs %+v", i, *reused.TCP, *want.TCP)
		}
		if !bytes.Equal(reused.Payload(), want.Payload()) {
			t.Errorf("frame %d: payload mismatch: %d vs %d bytes", i, len(reused.Payload()), len(want.Payload()))
		}
		if reused.Flow() != want.Flow() {
			t.Errorf("frame %d: flow mismatch: %v vs %v", i, reused.Flow(), want.Flow())
		}
	}
}

// TestDecodeIntoSelfBacked verifies the layer pointers target the Packet's
// own embedded headers, the property the pooled front-end relies on.
func TestDecodeIntoSelfBacked(t *testing.T) {
	bld := NewBuilder(1)
	frame, err := bld.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagSYN})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := DecodeInto(&p, frame); err != nil {
		t.Fatal(err)
	}
	if p.Eth != &p.eth || p.IP != &p.ip || p.TCP != &p.tcp {
		t.Fatal("DecodeInto must point layers at the Packet's embedded backing headers")
	}
}

// TestDecodeIntoErrorClearsLayers: after a failed decode, a previously
// successful decode must not shine through the layer pointers.
func TestDecodeIntoErrorClearsLayers(t *testing.T) {
	bld := NewBuilder(1)
	frame, err := bld.Build(Segment{Src: srcEP, Dst: dstEP, Flags: FlagACK})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := DecodeInto(&p, frame); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&p, frame[:10]); err == nil {
		t.Fatal("truncated frame must not decode")
	}
	if p.Eth != nil || p.IP != nil || p.TCP != nil {
		t.Fatalf("failed DecodeInto left stale layers: %v %v %v", p.Eth, p.IP, p.TCP)
	}
}

// TestDecodeIntoAllocs pins the acceptance criterion directly: the zero-copy
// path performs zero heap allocations per frame.
func TestDecodeIntoAllocs(t *testing.T) {
	bld := NewBuilder(1)
	frame, err := bld.Build(Segment{
		Src: srcEP, Dst: dstEP, Flags: FlagPSH | FlagACK,
		Payload: bytes.Repeat([]byte("A"), 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&p, frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto allocates %.1f times per frame, want 0", allocs)
	}
}
