package ids

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// Parallel capture scan: one decoder goroutine per capture segment feeds a
// flow-sharded assembler (see tcpasm.Sharded), and the merged sessions are
// matched by a worker pool. Output is byte-identical to ScanCapture over the
// concatenated segments — same events, same order, same stats — for any
// shard or worker count.

// ScanConfig tunes ScanCaptureSharded. The zero value picks sensible
// defaults for the host.
type ScanConfig struct {
	// Shards is the reassembly shard count; zero means the tcpasm default
	// of min(8, GOMAXPROCS).
	Shards int
	// MatchWorkers is the signature-matching pool size; zero means
	// GOMAXPROCS (see MatchSessions).
	MatchWorkers int
	// DisjointSegments declares that srcs partition flows (no connection
	// spans two segments) rather than being time-ordered slices of one
	// capture — the streaming telescope's virtual segments. Maps to
	// tcpasm.Config.FlowDisjointFeeders; required for such sources, wrong
	// for rotated pcap files.
	DisjointSegments bool
	// Assembler overrides reassembly limits (idle timeout, stream caps).
	// Its Shards field is superseded by ScanConfig.Shards when that is set.
	Assembler tcpasm.Config
}

// ScanCaptureSharded replays one or more capture segments through the
// parallel front-end. srcs must be time-ordered (segment N captured before
// segment N+1) — pcapio.OpenFiles order, or the single capture of a
// one-element slice. Sources implementing pcapio.ZeroCopySource (every
// source pcapio produces) are read without per-record allocation.
//
// Stats accounting matches ScanCapture: Packets counts records read,
// DecodeErrors counts undecodable ones, across all segments.
func ScanCaptureSharded(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig) ([]Event, ScanStats, error) {
	return scan(srcs, e, cfg, nil)
}

// ScanCaptureStreamed is ScanCaptureSharded with streaming emission: instead
// of accumulating every session until the capture ends, completed sessions
// flow straight from the shard workers through a matcher goroutine to sink,
// so peak memory is bounded by the in-flight window rather than the capture
// size. The trade: events reach sink in completion order, not the canonical
// (End, Start, Client, Server) order, and no event slice is returned — exact
// aggregate stats still are, via the order-independent StatsBuilder.
//
// sink must be non-nil. It is called from a single goroutine; each call
// owns its slice. A sink error stops delivery (the capture is still drained
// to keep the pipeline from deadlocking) and is returned after the scan's
// own errors.
func ScanCaptureStreamed(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, sink func([]Event) error) (ScanStats, error) {
	_, stats, err := scan(srcs, e, cfg, sink)
	return stats, err
}

// scan is the capture driver behind both entry points. With a nil sink the
// assembler keeps every session until the capture ends and the canonically
// ordered result is matched once; otherwise shard workers emit session
// batches to a matcher goroutine that feeds sink as they complete.
func scan(srcs []pcapio.PacketSource, e *Engine, cfg ScanConfig, sink func([]Event) error) ([]Event, ScanStats, error) {
	if len(srcs) == 0 {
		return nil, ScanStats{}, fmt.Errorf("ids: no capture sources")
	}
	acfg := cfg.Assembler
	if cfg.Shards != 0 {
		acfg.Shards = cfg.Shards
	}
	if cfg.DisjointSegments {
		acfg.FlowDisjointFeeders = true
	}

	sb := NewStatsBuilder()
	match := func(batch []tcpasm.Session) []Event {
		events := MatchSessions(batch, e, nil, cfg.MatchWorkers, nil)
		sb.AddSessionBatch(batch)
		sb.AddEvents(events)
		return events
	}
	var sinkErr error
	var sessCh chan []tcpasm.Session
	matcherDone := make(chan struct{})
	if sink == nil {
		close(matcherDone)
	} else {
		// Shard workers hand session batches to the matcher goroutine over
		// a bounded channel: matching overlaps with reassembly and decode,
		// and backpressure from a slow sink propagates all the way to
		// generation.
		sessCh = make(chan []tcpasm.Session, 4)
		acfg.Emit = func(batch []tcpasm.Session) { sessCh <- batch }
		go func() {
			defer close(matcherDone)
			for batch := range sessCh {
				if events := match(batch); sinkErr == nil && len(events) > 0 {
					sinkErr = sink(events)
				}
			}
		}()
	}

	asm := tcpasm.NewSharded(acfg, len(srcs))
	counts := make([]ScanStats, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src pcapio.PacketSource) {
			defer wg.Done()
			f := asm.Feeder(i)
			defer f.Close()
			var c ScanStats // local, so decoders share no cache line
			if _, err := FeedCapture(src, f, 0, &c); err != io.EOF {
				errs[i] = err
			}
			counts[i] = c
		}(i, src)
	}
	wg.Wait()
	sessions := asm.Wait() // nil under Emit, once the final flush batches are out
	if sessCh != nil {
		close(sessCh)
	}
	<-matcherDone
	events := match(sessions)

	stats := sb.Stats()
	for _, c := range counts {
		stats.Packets += c.Packets
		stats.DecodeErrors += c.DecodeErrors
	}
	for i, err := range errs {
		if err != nil {
			return nil, stats, fmt.Errorf("ids: segment %d: reading capture: %w", i, err)
		}
	}
	return events, stats, sinkErr
}

// FeedCapture reads records from src and routes each decodable frame to its
// flow's shard through f, until src is exhausted (reported as io.EOF) or max
// records have been read (max <= 0 means no limit). Zero-copy sources lend
// the pooled item's buffer to NextInto and the frame is decoded in place;
// others cost one copy per record. It adds the records read and the
// undecodable ones to counts.Packets and counts.DecodeErrors, and returns
// the timestamp of the last record read (zero if none). Every capture
// front-end — the scan driver and the ingest tailer — runs this loop.
func FeedCapture(src pcapio.PacketSource, f *tcpasm.Feeder, max int, counts *ScanStats) (time.Time, error) {
	zc, zeroCopy := src.(pcapio.ZeroCopySource)
	var rec pcapio.Packet
	var last time.Time
	for n := 0; max <= 0 || n < max; n++ {
		it := f.Get()
		var err error
		if zeroCopy {
			// Lend the item's buffer to the reader; take back whatever
			// (possibly grown) buffer it filled.
			rec.Data = it.Buf
			err = zc.NextInto(&rec)
			it.Buf = rec.Data
		} else {
			rec, err = src.Next()
			if err == nil {
				it.Buf = append(it.Buf[:0], rec.Data...)
			}
		}
		if err != nil {
			f.Recycle(it)
			return last, err
		}
		counts.Packets++
		last = rec.Timestamp
		if derr := packet.DecodeInto(&it.Pkt, it.Buf); derr != nil {
			counts.DecodeErrors++
			f.Recycle(it)
			continue
		}
		it.TS = rec.Timestamp
		f.Feed(it)
	}
	return last, nil
}
