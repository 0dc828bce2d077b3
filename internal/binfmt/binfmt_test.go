package binfmt

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
)

func TestRoundTrip(t *testing.T) {
	at := time.Date(2090, 1, 1, 0, 0, 0, 999999999, time.UTC)
	buf := append([]byte(nil), 7)
	buf = AppendU16(buf, math.MaxUint16)
	buf = AppendU32(buf, math.MaxUint32)
	buf = AppendU64(buf, math.MaxUint64)
	buf = AppendTime(buf, at)
	buf = AppendTime(buf, time.Time{})
	buf = AppendAddr(buf, netip.MustParseAddr("203.0.113.9"))
	buf = AppendAddr(buf, netip.MustParseAddr("2001:db8::1"))
	buf = AppendAddr(buf, netip.Addr{})
	buf = AppendString16(buf, "CVE-2021-44228")
	buf = AppendBytes32(buf, []byte{1, 2, 3})
	buf = AppendU32(buf, 2) // a Count for two u16s
	buf = AppendU16(buf, 10)
	buf = AppendU16(buf, 11)

	d := NewDecoder(buf)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != math.MaxUint16 {
		t.Errorf("U16 = %d", v)
	}
	if v := d.U32(); v != math.MaxUint32 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.Time(); !v.Equal(at) || v.Location() != time.UTC {
		t.Errorf("Time = %v", v)
	}
	if v := d.Time(); !v.Equal(time.Time{}) {
		t.Errorf("zero Time = %v", v)
	}
	for _, want := range []string{"203.0.113.9", "2001:db8::1", "invalid IP"} {
		if v := d.Addr(); v.String() != want {
			t.Errorf("Addr = %v, want %s", v, want)
		}
	}
	if v := d.String16(); v != "CVE-2021-44228" {
		t.Errorf("String16 = %q", v)
	}
	if v := d.Bytes32(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", v)
	}
	if n := d.Count(2); n != 2 {
		t.Errorf("Count = %d", n)
	}
	d.U16()
	d.U16()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendString16Truncates(t *testing.T) {
	d := NewDecoder(AppendString16(nil, strings.Repeat("x", math.MaxUint16+10)))
	if s := d.String16(); len(s) != math.MaxUint16 {
		t.Fatalf("decoded %d bytes, want %d", len(s), math.MaxUint16)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(d *Decoder)
		want string
	}{
		{"short u32", []byte{1, 2, 3}, func(d *Decoder) { d.U32() }, "truncated (3 of 4 bytes)"},
		{"short time", make([]byte, 11), func(d *Decoder) { d.Time() }, "truncated (11 of 12 bytes)"},
		{"short string", []byte{5, 0, 'a'}, func(d *Decoder) { d.String16() }, "truncated (1 of 5 bytes)"},
		{"short bytes", []byte{9, 0, 0, 0}, func(d *Decoder) { d.Bytes32() }, "truncated (0 of 9 bytes)"},
		{"bad addr", []byte{3, 1, 2, 3}, func(d *Decoder) { d.Addr() }, "bad address length 3"},
		{"stray", []byte{1, 2}, func(d *Decoder) { d.U8() }, "1 stray bytes"},
		{"count", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5}, func(d *Decoder) { d.Count(2) }, "count 3 needs at least 6 bytes, 5 left"},
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff}, func(d *Decoder) { d.Count(1) }, "count 4294967295 needs"},
		{"first error sticks", []byte{1}, func(d *Decoder) { d.U16(); d.U8(); d.Addr() }, "truncated (1 of 2 bytes)"},
	} {
		d := NewDecoder(tc.in)
		tc.read(&d)
		err := d.Finish()
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// A failed Count reads as 0, and every read after a failure yields a zero
// value without consuming input or allocating another error.
func TestFailedReadsAreZero(t *testing.T) {
	d := NewDecoder([]byte{0xff, 0xff, 0, 0, 'x', 'y'})
	if n := d.Count(8); n != 0 {
		t.Fatalf("failed Count = %d", n)
	}
	if d.U8() != 0 || d.String16() != "" || d.Take(1) != nil || d.Len() != 0 {
		t.Fatal("reads after a failure returned data")
	}
	if n := testing.AllocsPerRun(10, func() { d.U64(); d.Time(); d.Addr(); d.Bytes32() }); n != 0 {
		t.Fatalf("reads after a failure allocated %v times", n)
	}
}

// fuzzOps is the number of field kinds FuzzDecoder interprets.
const fuzzOps = 9

// fuzzField is one field decoded by FuzzDecoder.
type fuzzField struct {
	op   byte
	u    uint64
	t    time.Time
	a    netip.Addr
	s    string
	list []uint32
}

// splitFuzz splits a FuzzDecoder input into a program and its payload:
// data[0] is the number of ops, the next bytes pick each op's field kind,
// and the rest is the payload they decode.
func splitFuzz(data []byte) (ops, payload []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := min(int(data[0]), len(data)-1)
	return data[1 : 1+n], data[1+n:]
}

// decodeFuzz decodes payload into fields, one field per op.
func decodeFuzz(ops, payload []byte, fields []fuzzField) error {
	d := NewDecoder(payload)
	for i, op := range ops {
		f := &fields[i]
		f.op = op % fuzzOps
		switch f.op {
		case 0:
			f.u = uint64(d.U8())
		case 1:
			f.u = uint64(d.U16())
		case 2:
			f.u = uint64(d.U32())
		case 3:
			f.u = d.U64()
		case 4:
			f.t = d.Time()
		case 5:
			f.a = d.Addr()
		case 6:
			f.s = d.String16()
		case 7:
			f.s = string(d.Bytes32())
		case 8:
			f.list = make([]uint32, d.Count(4))
			for j := range f.list {
				f.list[j] = d.U32()
			}
		}
	}
	return d.Finish()
}

func encodeFuzz(ops []byte, fields []fuzzField) []byte {
	buf := append([]byte{byte(len(ops))}, ops...)
	for _, f := range fields {
		switch f.op {
		case 0:
			buf = append(buf, byte(f.u))
		case 1:
			buf = AppendU16(buf, uint16(f.u))
		case 2:
			buf = AppendU32(buf, uint32(f.u))
		case 3:
			buf = AppendU64(buf, f.u)
		case 4:
			buf = AppendTime(buf, f.t)
		case 5:
			buf = AppendAddr(buf, f.a)
		case 6:
			buf = AppendString16(buf, f.s)
		case 7:
			buf = AppendBytes32(buf, []byte(f.s))
		case 8:
			buf = AppendU32(buf, uint32(len(f.list)))
			for _, v := range f.list {
				buf = AppendU32(buf, v)
			}
		}
	}
	return buf
}

func fuzzDecoderSeeds() [][]byte {
	every := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}
	valid := encodeFuzz(every, []fuzzField{
		{op: 0, u: 1}, {op: 1, u: 2}, {op: 2, u: 3}, {op: 3, u: 4},
		{op: 4, t: time.Date(2022, 6, 2, 0, 0, 0, 5, time.UTC)},
		{op: 5, a: netip.MustParseAddr("2001:db8::1")},
		{op: 6, s: "CVE-2022-26134"}, {op: 7, s: "payload"},
		{op: 8, list: []uint32{1, 2, 3}},
	})
	lyingCount := append([]byte{1, 8}, 0xff, 0xff, 0xff, 0x0f)
	overflowNsec := append([]byte{1, 4}, make([]byte, 8)...)
	overflowNsec = append(overflowNsec, 0xff, 0xff, 0xff, 0xff)
	return [][]byte{
		{}, {0}, valid, valid[:len(valid)-1], append(valid, 0),
		lyingCount, overflowNsec,
		{1, 5, 3, 1, 2, 3},    // address of length 3
		{2, 6, 7, 0xff, 0xff}, // string length past the end
	}
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpus from
// the same seed list the fuzz target f.Adds. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzDecoder", fuzzDecoderSeeds())
}

// FuzzDecoder runs an input-chosen sequence of field reads over arbitrary
// bytes. Decoding must never panic, never allocate more than a small
// multiple of the input (Count must keep a lying count from sizing a
// slice), and any accepted input must re-encode to fields that decode to
// the same values.
func FuzzDecoder(f *testing.F) {
	for _, seed := range fuzzDecoderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, payload := splitFuzz(data)
		fields := make([]fuzzField, len(ops))
		var err error
		alloc := fuzzcorpus.AllocatedBytes(func() { err = decodeFuzz(ops, payload, fields) })
		if limit := 4*uint64(len(payload)) + 64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), alloc, limit)
		}
		if err != nil || len(data) == 0 {
			return
		}
		again := make([]fuzzField, len(ops))
		ops2, payload2 := splitFuzz(encodeFuzz(ops, fields))
		if err := decodeFuzz(ops2, payload2, again); err != nil {
			t.Fatalf("re-encoded fields do not decode: %v", err)
		}
		if !reflect.DeepEqual(again, fields) {
			t.Fatalf("re-encoded fields decode differently:\n got %+v\nwant %+v", again, fields)
		}
	})
}
