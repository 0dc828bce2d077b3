// Package binfmt is the repository's one field codec for binary payloads:
// the event store's records, amendments and commits, the fleet wire and
// spool, replica shipping, session digests, and timeline segments and
// checkpoints all encode their fields with it. internal/journal frames
// those payloads on disk; binfmt owns what is inside a frame.
//
// Every field is little-endian:
//
//	U8/U16/U32/U64   fixed-width unsigned integers
//	Time             i64 Unix seconds | u32 nanoseconds, decoded as UTC, so
//	                 the full time.Time range (zero times, far-future
//	                 sentinels) round-trips
//	Addr             u8 length (0, 4 or 16) | address bytes; 0 is the zero
//	                 netip.Addr
//	String16         u16 length | bytes (encoders truncate at 65535)
//	Bytes32          u32 length | bytes
//	Count            u32 element count, checked against the bytes left
//
// A Decoder's first failure sticks: every later read returns a zero value
// and Finish reports that first error, so a format's decoder is a plain
// list of field reads followed by one error check. Decoding never panics
// and never lets an untrusted count size an allocation larger than the
// payload could hold. Errors carry no package prefix; callers wrap them
// with their own, naming the record, e.g. "fleet: Hello: %w".
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"
)

// Decoder reads fields from a byte slice. The zero value decodes an empty
// payload.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b. Slices it returns (Take, Bytes32)
// alias b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records err as the decoder's error unless one is already recorded,
// and stops all further reads. Format decoders use it for semantic checks
// (a bad tag, an over-cap count) so those stick like a short read.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Err returns the first error recorded, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) }

// Finish returns the first error recorded, or an error if any bytes were
// left unread.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d stray bytes", len(d.b))
	}
	return nil
}

// short records a read of n bytes past the end. Only the first failure
// builds an error: later reads return zero values without allocating.
func (d *Decoder) short(n int) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated (%d of %d bytes)", len(d.b), n)
	}
	d.b = nil
}

// Take returns the next n bytes, or nil (recording an error) if fewer
// remain.
func (d *Decoder) Take(n int) []byte {
	b := d.b
	if uint(n) > uint(len(b)) {
		d.short(n)
		return nil
	}
	d.b = b[n:]
	return b[:n:n]
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.b
	if len(b) < 1 {
		d.short(1)
		return 0
	}
	d.b = b[1:]
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.b
	if len(b) < 2 {
		d.short(2)
		return 0
	}
	d.b = b[2:]
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.b
	if len(b) < 4 {
		d.short(4)
		return 0
	}
	d.b = b[4:]
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.b
	if len(b) < 8 {
		d.short(8)
		return 0
	}
	d.b = b[8:]
	return binary.LittleEndian.Uint64(b)
}

// Time reads i64 Unix seconds and u32 nanoseconds as a UTC time.
func (d *Decoder) Time() time.Time {
	if len(d.b) < 12 {
		d.short(12)
		return time.Time{}
	}
	sec := int64(binary.LittleEndian.Uint64(d.b))
	nsec := binary.LittleEndian.Uint32(d.b[8:])
	d.b = d.b[12:]
	return time.Unix(sec, int64(nsec)).UTC()
}

// Addr reads a u8 length and that many address bytes. Length 0 is the zero
// Addr; any length other than 0, 4 or 16 is an error.
func (d *Decoder) Addr() netip.Addr {
	n := int(d.U8())
	if n == 0 {
		return netip.Addr{}
	}
	b := d.Take(n)
	if b == nil {
		return netip.Addr{}
	}
	addr, ok := netip.AddrFromSlice(b)
	if !ok {
		d.Fail(fmt.Errorf("bad address length %d", n))
	}
	return addr
}

// String16 reads a u16 length and that many bytes as a string.
func (d *Decoder) String16() string {
	return string(d.Take(int(d.U16())))
}

// Bytes32 reads a u32 length and returns that many bytes, aliasing the
// decoder's input.
func (d *Decoder) Bytes32() []byte {
	return d.Take(int(d.U32()))
}

// Count reads a u32 element count for a list whose elements each occupy at
// least minElemSize (>= 1) bytes. A count the remaining bytes cannot hold is
// an error and reads as 0, so the result can size an allocation safely: it
// is never more than Len()/minElemSize.
func (d *Decoder) Count(minElemSize int) int {
	n := d.U32()
	if need := uint64(n) * uint64(minElemSize); need > uint64(len(d.b)) {
		d.Fail(fmt.Errorf("count %d needs at least %d bytes, %d left", n, need, len(d.b)))
		return 0
	}
	return int(n)
}

// AppendU16 appends v little-endian.
func AppendU16(buf []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(buf, v) }

// AppendU32 appends v little-endian.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendU64 appends v little-endian.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendTime appends t as i64 Unix seconds and u32 nanoseconds.
func AppendTime(buf []byte, t time.Time) []byte {
	buf = AppendU64(buf, uint64(t.Unix()))
	return AppendU32(buf, uint32(t.Nanosecond()))
}

// AppendAddr appends a's length byte and bytes (length 0 for the zero
// Addr).
func AppendAddr(buf []byte, a netip.Addr) []byte {
	b := a.AsSlice() // nil for the zero Addr
	buf = append(buf, byte(len(b)))
	return append(buf, b...)
}

// AppendString16 appends s with a u16 length, truncating s to 65535 bytes.
func AppendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = AppendU16(buf, uint16(len(s)))
	return append(buf, s...)
}

// AppendBytes32 appends b with a u32 length.
func AppendBytes32(buf, b []byte) []byte {
	buf = AppendU32(buf, uint32(len(b)))
	return append(buf, b...)
}
