package eventstore

import (
	"fmt"

	"repro/internal/binfmt"
	"repro/internal/ids"
	"repro/internal/packet"
)

// On-disk format. Each shard file is a journal log (see internal/journal):
// the 8-byte magic "EVLOG\x00\x01\n", then length+CRC frames, one per
// event, recovered by the journal's torn-tail rule.
//
// A payload encodes one ids.Event:
//
//	i64 sec, u32 nsec            session start (Time)
//	u8 addrLen, addr bytes, u16 port   source endpoint
//	u8 addrLen, addr bytes, u16 port   destination endpoint
//	u32 SID
//	i64 sec, u32 nsec            rule publication time
//	u16 len, bytes               CVE
//	u16 len, bytes               Msg
//	u32 Bytes
//	u8 flags                     bit 0: Ambiguous
//
// Fields are internal/binfmt encodings. Timestamps are (seconds,
// nanoseconds) rather than UnixNano so the full time.Time range survives —
// the study ruleset uses a year-2090 sentinel for never-published rules, and
// zero times must round-trip too.

var fileMagic = [8]byte{'E', 'V', 'L', 'O', 'G', 0x00, 0x01, '\n'}

// EncodeEvent appends ev's binary payload encoding to buf. The encoding is
// the store's on-disk record payload; the fleet wire protocol reuses it so a
// sensor's batches and the coordinator's log speak one format.
func EncodeEvent(buf []byte, ev *ids.Event) []byte {
	buf = binfmt.AppendTime(buf, ev.Time)
	buf = binfmt.AppendAddr(buf, ev.Src.Addr)
	buf = binfmt.AppendU16(buf, ev.Src.Port)
	buf = binfmt.AppendAddr(buf, ev.Dst.Addr)
	buf = binfmt.AppendU16(buf, ev.Dst.Port)
	buf = binfmt.AppendU32(buf, uint32(ev.SID))
	buf = binfmt.AppendTime(buf, ev.Published)
	buf = binfmt.AppendString16(buf, ev.CVE)
	buf = binfmt.AppendString16(buf, ev.Msg)
	buf = binfmt.AppendU32(buf, uint32(ev.Bytes))
	var flags byte
	if ev.Ambiguous {
		flags |= 1
	}
	return append(buf, flags)
}

// DecodeEvent decodes one EncodeEvent payload. It returns an error (never
// panics) on malformed input, since payloads come off disk and the wire.
func DecodeEvent(payload []byte) (ids.Event, error) {
	d := binfmt.NewDecoder(payload)
	ev := decodeEventFields(&d)
	if err := d.Finish(); err != nil {
		return ids.Event{}, fmt.Errorf("eventstore: event: %w", err)
	}
	return ev, nil
}

// decodeEventFields consumes one event's fields from d, leaving any
// remaining bytes for composite payloads (the amendment log embeds an event
// before its own fields). Go evaluates the reads in the literal left to
// right, so the field order below is the wire order.
func decodeEventFields(d *binfmt.Decoder) ids.Event {
	return ids.Event{
		Time:      d.Time(),
		Src:       packet.Endpoint{Addr: d.Addr(), Port: d.U16()},
		Dst:       packet.Endpoint{Addr: d.Addr(), Port: d.U16()},
		SID:       int(d.U32()),
		Published: d.Time(),
		CVE:       d.String16(),
		Msg:       d.String16(),
		Bytes:     int(d.U32()),
		Ambiguous: d.U8()&1 != 0,
	}
}
