package telescope

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
)

// capWriter records every frame WritePcap emits.
type capWriter struct {
	ts     []time.Time
	frames [][]byte
}

func (c *capWriter) WritePacket(ts time.Time, data []byte) error {
	c.ts = append(c.ts, ts)
	c.frames = append(c.frames, append([]byte(nil), data...))
	return nil
}

func (c *capWriter) Flush() error { return nil }

func streamWorkload(t *testing.T, seed int64) []scanner.Blueprint {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: seed, Scale: 4000, LegacyScans: 40})
	if err != nil {
		t.Fatal(err)
	}
	return bps
}

// drain reads a segment to EOF via NextInto, copying out each record.
func drain(t *testing.T, ss *StreamSource) ([]time.Time, [][]byte) {
	t.Helper()
	var (
		tss    []time.Time
		frames [][]byte
		p      pcapio.Packet
	)
	for {
		err := ss.NextInto(&p)
		if err == io.EOF {
			return tss, frames
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.OrigLen != len(p.Data) {
			t.Fatalf("OrigLen %d != len(Data) %d", p.OrigLen, len(p.Data))
		}
		tss = append(tss, p.Timestamp)
		frames = append(frames, append([]byte(nil), p.Data...))
	}
}

// TestStreamSingleSegmentMatchesWritePcap: one segment must replay the exact
// frame-and-timestamp sequence of the materialized pcap writer.
func TestStreamSingleSegmentMatchesWritePcap(t *testing.T) {
	bps := streamWorkload(t, 3)
	tel := NewSim(SimConfig{Seed: 3})

	var want capWriter
	if err := tel.WritePcap(bps, &want); err != nil {
		t.Fatal(err)
	}

	st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: 1})
	defer st.Close()
	gotTS, gotFrames := drain(t, st.Segments()[0])

	if len(gotFrames) != len(want.frames) {
		t.Fatalf("streamed %d frames, pcap path wrote %d", len(gotFrames), len(want.frames))
	}
	for i := range gotFrames {
		if !gotTS[i].Equal(want.ts[i]) {
			t.Fatalf("frame %d: timestamp %v != %v", i, gotTS[i], want.ts[i])
		}
		if !bytes.Equal(gotFrames[i], want.frames[i]) {
			t.Fatalf("frame %d differs from pcap path", i)
		}
	}
}

// TestStreamSegmentsPartitionWithoutLoss: for any segment count the union of
// segments is the same frame multiset, each session's frames stay contiguous
// within one segment, and every session lands on its tcpasm.FlowShard.
func TestStreamSegmentsPartitionWithoutLoss(t *testing.T) {
	bps := streamWorkload(t, 5)
	tel := NewSim(SimConfig{Seed: 5})

	var want capWriter
	if err := tel.WritePcap(bps, &want); err != nil {
		t.Fatal(err)
	}
	wantCount := map[string]int{}
	for _, f := range want.frames {
		wantCount[string(f)]++
	}

	for _, segs := range []int{3, 8} {
		t.Run(fmt.Sprintf("segments%d", segs), func(t *testing.T) {
			st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: segs})
			defer st.Close()

			gotCount := map[string]int{}
			total := 0
			for si, ss := range st.Segments() {
				_, frames := drain(t, ss)
				for _, f := range frames {
					gotCount[string(f)]++
					total++
					p := new(packet.Packet)
					if err := packet.DecodeInto(p, f); err != nil {
						t.Fatalf("segment %d: undecodable frame: %v", si, err)
					}
					if got := tcpasm.FlowShard(p.Flow(), segs); got != si {
						t.Fatalf("segment %d holds a frame whose flow hashes to %d", si, got)
					}
				}
			}
			if total != len(want.frames) {
				t.Fatalf("streamed %d frames across %d segments, want %d", total, segs, len(want.frames))
			}
			for f, n := range wantCount {
				if gotCount[f] != n {
					t.Fatalf("frame multiset mismatch: a pcap-path frame appears %d times streamed, want %d", gotCount[f], n)
				}
			}
			m := st.Metrics()
			if m.Blueprints != uint64(len(bps)) || m.Sessions != uint64(len(bps)) {
				t.Fatalf("metrics: blueprints=%d sessions=%d, want %d each", m.Blueprints, m.Sessions, len(bps))
			}
			if m.Packets != uint64(total) {
				t.Fatalf("metrics: packets=%d, want %d", m.Packets, total)
			}
			if m.Lag != 0 {
				t.Fatalf("metrics: lag=%d after full drain", m.Lag)
			}
		})
	}
}

// TestStreamCloseUnblocksProducer: closing mid-stream must not leak the
// routing goroutine even with full segment queues.
func TestStreamCloseUnblocksProducer(t *testing.T) {
	bps := streamWorkload(t, 7)
	tel := NewSim(SimConfig{Seed: 7})
	st := tel.Stream(NewSliceSource(bps), StreamConfig{Segments: 2, Queue: 1})
	// Consume a little, then abandon.
	var p pcapio.Packet
	for i := 0; i < 3; i++ {
		if err := st.Segments()[0].NextInto(&p); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { st.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the routing goroutine")
	}
}
