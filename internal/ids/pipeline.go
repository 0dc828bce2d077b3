package ids

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/tcpasm"
)

// Event is one exploit event: a TCP session whose client payload matched an
// IDS signature, attributed to the earliest-published matching rule. This is
// the unit the paper counts 146 k of.
type Event struct {
	// Time is the session start (the first captured segment), the paper's
	// event timestamp.
	Time time.Time
	// Src is the scanning client, Dst the telescope endpoint.
	Src packet.Endpoint
	Dst packet.Endpoint
	// SID is the matched signature and Published its release time.
	SID       int
	Published time.Time
	// CVE is the primary CVE attribution ("YYYY-NNNN"), empty when the rule
	// carries no CVE reference.
	CVE string
	// Msg is the rule message.
	Msg string
	// Bytes is the client payload length.
	Bytes int
	// Ambiguous marks an event whose session carried conflicting
	// overlapping retransmits (tcpasm.Session.Ambiguous): the verdict rests
	// on the overlap policy's choice of bytes, not on a uniquely determined
	// stream, so downstream consumers should weigh it accordingly.
	Ambiguous bool
}

// ScanStats summarizes a capture scan.
type ScanStats struct {
	Packets        int
	DecodeErrors   int
	Sessions       int
	MatchedEvents  int
	DistinctCVEs   int
	DistinctSrcIPs int
	// AmbiguousSessions counts scanned sessions (matched or not) flagged
	// ambiguous by reassembly — the loud signal that someone played
	// overlap games against the capture front-end.
	AmbiguousSessions int
}

// ScanCapture replays a capture (classic pcap or pcapng — see
// pcapio.OpenCapture) through reassembly and the engine, returning one Event
// per matched session. This is the paper's post-facto evaluation: the
// capture spans the whole study and the ruleset carries publication dates,
// so matches may predate their rule's release.
func ScanCapture(r pcapio.PacketSource, e *Engine) ([]Event, ScanStats, error) {
	asm := tcpasm.NewAssembler(tcpasm.Config{})
	var stats ScanStats
	// One Packet serves every record: reassembly copies any payload it keeps.
	var dec packet.Packet
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, stats, fmt.Errorf("ids: reading capture: %w", err)
		}
		stats.Packets++
		if err := packet.DecodeInto(&dec, pkt.Data); err != nil {
			stats.DecodeErrors++
			continue
		}
		asm.Feed(pkt.Timestamp, &dec)
		if stats.Packets%4096 == 0 {
			asm.Advance(pkt.Timestamp)
		}
	}
	asm.Flush()
	sessions := asm.Sessions()
	events := MatchSessions(sessions, e, &stats, 1, nil)
	return events, stats, nil
}

// MatchSessions evaluates sessions against the engine and returns the
// attributed events in session order, for any worker count. workers <= 0
// selects GOMAXPROCS; one worker, or a batch too small to split, evaluates
// inline without spawning a goroutine. The engine is immutable after
// construction, so workers share it without locking, and per-session
// results land in a preallocated slot array that keeps the serial order.
//
// stats, when non-nil, receives the match-derived totals (Packets and
// DecodeErrors are left alone). matched, when non-nil, must hold one slot
// per session and records whether that session produced an event: the k-th
// true slot owns events[k]. The digest-recording ingest path needs that
// pairing, since each session's digest stores its own ingest-time label.
func MatchSessions(sessions []tcpasm.Session, e *Engine, stats *ScanStats, workers int, matched []bool) []Event {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var events []Event
	if workers == 1 || len(sessions) < 2*workers {
		for i := range sessions {
			ev, ok := matchSession(&sessions[i], e)
			if matched != nil {
				matched[i] = ok
			}
			if ok {
				events = append(events, ev)
			}
		}
		setMatchStats(stats, sessions, events)
		return events
	}
	evs := make([]Event, len(sessions))
	if matched == nil {
		matched = make([]bool, len(sessions))
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				evs[i], matched[i] = matchSession(&sessions[i], e)
			}
		}()
	}
	for i := range sessions {
		next <- i
	}
	close(next)
	wg.Wait()
	events = make([]Event, 0, len(sessions))
	for i, ok := range matched {
		if ok {
			events = append(events, evs[i])
		}
	}
	setMatchStats(stats, sessions, events)
	return events
}

// MatchSession evaluates one session, returning its attributed event when a
// rule fires — the exact event the batch pipelines produce. The registry's
// retroactive rescan uses it so re-derived labels are byte-identical to what
// a cold ingest over the same ruleset would have written.
func MatchSession(s *tcpasm.Session, e *Engine) (Event, bool) { return matchSession(s, e) }

// matchSession evaluates one session, returning its attributed event when a
// rule fires. Both the serial and parallel paths build events here, so the
// attribution (earliest-published rule, primary CVE) cannot diverge.
func matchSession(s *tcpasm.Session, e *Engine) (Event, bool) {
	m, ok := e.Earliest(s)
	if !ok {
		return Event{}, false
	}
	ev := Event{
		Time:      s.Start,
		Src:       s.Client,
		Dst:       s.Server,
		SID:       m.SID,
		Published: m.Published,
		Msg:       m.Rule.Rule.Msg,
		Bytes:     len(s.ClientData),
		Ambiguous: s.Ambiguous,
	}
	if len(m.CVEs) > 0 {
		ev.CVE = m.CVEs[0]
	}
	return ev, true
}
