package fleet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/fuzzcorpus"
	"repro/internal/journal"
)

func fuzzReadFrameSeeds(tb testing.TB) [][]byte {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, payload); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	torn := frame([]byte("torn mid-payload"))
	corrupt := append([]byte(nil), frame([]byte("crc mismatch"))...)
	corrupt[len(corrupt)-1] ^= 0x01
	return [][]byte{
		frame([]byte("hello fleet")),
		frame(nil),
		frame(encodeAck(42)),
		{},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, // length far past maxFrame
		torn[:len(torn)-3],
		corrupt,
	}
}

func fuzzDecodeBatchSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	events := testEvents(tb, 5)
	for _, codec := range []Codec{CodecRaw, CodecSnappy, CodecDeflate} {
		msg, err := encodeBatch(3, events, codec)
		if err != nil {
			tb.Fatal(err)
		}
		flipped := append([]byte(nil), msg...)
		flipped[len(flipped)/2] ^= 0x20 // corrupt the compressed body
		seeds = append(seeds, msg, msg[:len(msg)-4], flipped)
	}
	empty, err := encodeBatch(1, nil, CodecSnappy)
	if err != nil {
		tb.Fatal(err)
	}
	// A batch whose header declares a huge raw size with a tiny body.
	lying := []byte{msgBatch}
	lying = binary.LittleEndian.AppendUint64(lying, 9)
	lying = append(lying, byte(CodecSnappy))
	lying = binary.LittleEndian.AppendUint32(lying, 1)
	lying = binary.LittleEndian.AppendUint32(lying, maxBatchRaw)
	// A raw batch whose header declares far more events than its bytes can
	// hold — the count sizes an allocation, so this once reserved gigabytes.
	countLie := []byte{msgBatch}
	countLie = binary.LittleEndian.AppendUint64(countLie, 9)
	countLie = append(countLie, byte(CodecRaw))
	countLie = binary.LittleEndian.AppendUint32(countLie, 1<<29)
	countLie = binary.LittleEndian.AppendUint32(countLie, 8)
	countLie = append(countLie, make([]byte, 8)...)
	return append(seeds, empty, []byte{}, []byte{msgBatch}, append(lying, 0x00), countLie)
}

// TestRegenFuzzCorpus rewrites this package's committed seed corpora from
// the same seed lists the fuzz targets f.Add. Run with REGEN_FUZZ_CORPUS=1
// after changing the seeds.
func TestRegenFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	fuzzcorpus.Write(t, "FuzzReadFrame", fuzzReadFrameSeeds(t))
	fuzzcorpus.Write(t, "FuzzDecodeBatch", fuzzDecodeBatchSeeds(t))
	fuzzcorpus.Write(t, "FuzzSpoolBatch", fuzzSpoolBatchSeeds(t))
}

// FuzzReadFrame feeds arbitrary bytes to the wire framing — the first thing
// either end of a fleet connection does with untrusted input. The frame
// reader must never panic, never return a payload larger than maxFrame, and
// must reject any payload whose CRC does not match. It also checks the
// round-trip property: any payload the writer accepts must read back intact.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzReadFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), nil)
		if err == nil {
			if len(payload) > maxFrame {
				t.Fatalf("accepted a %d-byte payload past the %d frame limit", len(payload), maxFrame)
			}
			// An accepted frame's header must actually describe it.
			if len(data) < 8+len(payload) {
				t.Fatalf("returned %d payload bytes from %d input bytes", len(payload), len(data))
			}
			declared := binary.LittleEndian.Uint32(data[0:4])
			if int(declared) != len(payload) {
				t.Fatalf("payload is %d bytes, header declared %d", len(payload), declared)
			}
			if sum := crc32.Checksum(payload, wireCRC); sum != binary.LittleEndian.Uint32(data[4:8]) {
				t.Fatal("accepted a frame whose CRC does not cover its payload")
			}
		}

		// Round trip: the fuzz input as a payload must survive the writer.
		if len(data) > maxFrame {
			return
		}
		var b bytes.Buffer
		if err := writeFrame(&b, data); err != nil {
			t.Fatalf("writeFrame rejected a %d-byte payload: %v", len(data), err)
		}
		back, err := readFrame(bytes.NewReader(b.Bytes()), nil)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip corrupted payload: sent %d bytes, got %d back", len(data), len(back))
		}
	})
}

// FuzzDecodeBatch hammers the batch decoder — the only fleet message whose
// payload holds untrusted variable-length structure (a declared event count,
// a declared decompressed size, and a compressed body) — across all three
// codecs. The decoder must never panic, must respect maxBatchRaw, and the
// scratch-reusing variant must agree with the allocating one on both the
// accept/reject decision and the decoded events.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range fuzzDecodeBatchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeBatch(data)
		scratch := make([]byte, 16)
		m2, _, err2 := decodeBatchScratch(data, scratch)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("decodeBatch err=%v but decodeBatchScratch err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if m.Seq != m2.Seq || len(m.Events) != len(m2.Events) {
			t.Fatalf("variants disagree: seq %d/%d, %d/%d events", m.Seq, m2.Seq, len(m.Events), len(m2.Events))
		}
		for i := range m.Events {
			if !eventsEqual(m.Events[i], m2.Events[i]) {
				t.Fatalf("event %d differs between decode variants", i)
			}
		}
		// Accepted batches re-encode and decode back to the same events.
		re, err := encodeBatch(m.Seq, m.Events, CodecRaw)
		if err != nil {
			t.Fatalf("re-encoding an accepted batch: %v", err)
		}
		back, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded batch: %v", err)
		}
		if back.Seq != m.Seq || len(back.Events) != len(m.Events) {
			t.Fatalf("re-encode round trip: seq %d/%d, %d/%d events", back.Seq, m.Seq, len(back.Events), len(m.Events))
		}
		for i := range back.Events {
			if !eventsEqual(back.Events[i], m.Events[i]) {
				t.Fatalf("re-encode round trip: event %d differs", i)
			}
		}
	})
}

func fuzzSpoolBatchSeeds(tb testing.TB) [][]byte {
	valid := encodeSpoolBatch(7, testEvents(tb, 3))
	// A record declaring far more events than its bytes can hold — the
	// count once sized the recovered slice unchecked.
	countLie := binary.LittleEndian.AppendUint64(nil, 1)
	countLie = binary.LittleEndian.AppendUint32(countLie, 0xffffffff)
	return [][]byte{
		valid,
		encodeSpoolBatch(1, nil),
		valid[:len(valid)-1],
		append(append([]byte(nil), valid...), 0),
		valid[:20], // count of 3, first event frame torn
		countLie,
		{},
	}
}

// recoverSpool opens a spool whose log holds payload as its one record and
// returns the batches recovery adopted.
func recoverSpool(t *testing.T, payload []byte) ([]spoolBatch, error) {
	fs := fault.NewSimFS(1, fault.Profile{})
	file := journal.AppendFrame(append([]byte(nil), spoolMagic[:]...), payload)
	if err := fs.WriteFile("spool.log", file, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := openSpool(fs, ".")
	if err != nil {
		return nil, err
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return sp.pending, nil
}

// FuzzSpoolBatch feeds arbitrary bytes as one spooled batch record through
// spool recovery — the path a sensor runs on every restart over whatever
// its disk holds. Recovery must never panic or allocate more than a fixed
// multiple of the record (its event count is bounded by the bytes present,
// at a worst case of one 168-byte ids.Event per 4-byte frame prefix), and
// a recovered batch must re-encode to a record that recovers to the same
// sequence and events.
func FuzzSpoolBatch(f *testing.F) {
	for _, seed := range fuzzSpoolBatchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []spoolBatch
		var err error
		alloc := fuzzcorpus.AllocatedBytes(func() { got, err = recoverSpool(t, data) })
		if limit := 64*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("recovering a %d-byte record allocated %d, limit %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if len(got) != 1 {
			t.Fatalf("recovered %d batches from one record", len(got))
		}
		back, err := recoverSpool(t, encodeSpoolBatch(got[0].seq, got[0].events))
		if err != nil {
			t.Fatalf("re-encoded batch does not recover: %v", err)
		}
		if back[0].seq != got[0].seq || !reflect.DeepEqual(back[0].events, got[0].events) {
			t.Fatalf("re-encoded batch recovered as seq %d with %d events, want seq %d with %d",
				back[0].seq, len(back[0].events), got[0].seq, len(got[0].events))
		}
	})
}
