package wayback

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/ids"
	"repro/internal/pcapio"
	"repro/internal/scanner"
)

// pcapOracle is the reference every capture path must reproduce: the
// study's capture written out as pcap bytes and replayed through the serial
// ids.ScanCapture.
func pcapOracle(t testing.TB, cfg Config) *Results {
	t.Helper()
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bps, err := scanner.Build(s.scannerConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.tel.WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res := newResults(s.cfg)
	if res.Events, res.Stats, err = ids.ScanCapture(r, s.engine); err != nil {
		t.Fatal(err)
	}
	res.finish(s)
	return res
}

// TestStreamingMatchesPcapPath: the zero-materialization capture must
// reproduce the serial scan of the same capture written as pcap exactly —
// events in identical order, identical stats, identical Table 4 — for every
// segment count and seed.
func TestStreamingMatchesPcapPath(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		base := Config{Seed: seed, Scale: 1500, LegacyScans: 30}
		want := pcapOracle(t, base)
		if want.Stats.MatchedEvents < 50 {
			t.Fatalf("seed %d: weak test input, only %d events", seed, want.Stats.MatchedEvents)
		}
		for _, segs := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("seed%d_segments%d", seed, segs), func(t *testing.T) {
				cfg := base
				cfg.Streaming = true
				cfg.StreamSegments = segs
				got := run(t, cfg)
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("stats differ:\n got %+v\nwant %+v", got.Stats, want.Stats)
				}
				if len(got.Events) != len(want.Events) {
					t.Fatalf("got %d events, want %d", len(got.Events), len(want.Events))
				}
				for i := range got.Events {
					if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
						t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, got.Events[i], want.Events[i])
					}
				}
				if g, w := got.Table4().String(), want.Table4().String(); g != w {
					t.Error("Table 4 differs between streamed and pcap paths")
				}
			})
		}
	}
}

// TestRunStreamMatchesRun: RunStream's sink must receive the same event
// multiset Run materializes, with identical aggregate stats.
func TestRunStreamMatchesRun(t *testing.T) {
	base := Config{Seed: 3, Scale: 1500, Streaming: true}
	want := run(t, base)

	study, err := NewStudy(base)
	if err != nil {
		t.Fatal(err)
	}
	var got []ids.Event
	res, err := study.RunStream(func(evs []ids.Event) error {
		got = append(got, evs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Error("RunStream materialized Events")
	}
	if !reflect.DeepEqual(res.Stats, want.Stats) {
		t.Errorf("stats differ:\n got %+v\nwant %+v", res.Stats, want.Stats)
	}
	key := func(e ids.Event) string {
		return fmt.Sprintf("%d|%s|%s|%d|%s", e.Time.UnixNano(), e.Src.Addr, e.Dst.Addr, e.SID, e.CVE)
	}
	a := make([]string, len(got))
	for i, e := range got {
		a[i] = key(e)
	}
	b := make([]string, len(want.Events))
	for i, e := range want.Events {
		b[i] = key(e)
	}
	sort.Strings(a)
	sort.Strings(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event multisets differ: sink got %d, Run produced %d", len(a), len(b))
	}
	if len(res.Timelines) != 63 {
		t.Errorf("timelines = %d, want 63", len(res.Timelines))
	}
}

// TestRunStreamRejectsPipelineTimelines: the streaming path cannot feed the
// lifecycle-from-events derivation and must say so instead of silently
// returning empty timelines.
func TestRunStreamRejectsPipelineTimelines(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, Scale: 2000, PipelineTimelines: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.RunStream(nil); err == nil {
		t.Fatal("RunStream accepted PipelineTimelines")
	}
}

// peakHeap runs f and returns the GC-settled heap growth it caused, sampling
// between sink batches to catch the in-flight peak.
func peakHeap(t *testing.T, cfg Config) uint64 {
	t.Helper()
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	batches := 0
	_, err = study.RunStream(func([]ids.Event) error {
		batches++
		if batches%8 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	if peak <= base {
		return 0
	}
	return peak - base
}

// TestRunStreamConstantMemory: an 8x larger workload must not grow the
// streamed pipeline's settled peak heap 2x — memory is bounded by the
// in-flight window, not the workload size.
func TestRunStreamConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression test is slow")
	}
	base := Config{Seed: 2, Streaming: true, StreamSegments: 2, ReasmShards: 2, MatchWorkers: 1}

	small := base
	small.Scale = 40 // ~2.9k exploit events
	large := base
	large.Scale = 5 // ~23k exploit events, 8x the small run

	smallPeak := peakHeap(t, small)
	largePeak := peakHeap(t, large)

	const floor = 4 << 20 // ignore noise below 4 MiB
	if smallPeak < floor {
		smallPeak = floor
	}
	if largePeak < floor {
		largePeak = floor
	}
	if ratio := float64(largePeak) / float64(smallPeak); ratio >= 2 {
		t.Fatalf("peak heap grew %.1fx (small %d B, large %d B) for an 8x workload — streaming is materializing somewhere", ratio, smallPeak, largePeak)
	}
}
