package ids

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/binfmt"
	"repro/internal/tcpasm"
)

// StatsBuilder accumulates ScanStats incrementally. It is the one shared
// aggregation used by MatchSessions, the capture scan driver, and the
// streaming ingest pipeline, so the three paths cannot drift: a session
// counts once, an event counts once, and distinct CVEs and source
// addresses are deduplicated across every batch fed to the builder.
type StatsBuilder struct {
	sessions  int
	matched   int
	ambiguous int
	cves      map[string]struct{}
	srcs      map[netip.Addr]struct{}
}

// NewStatsBuilder returns an empty builder.
func NewStatsBuilder() *StatsBuilder {
	return &StatsBuilder{
		cves: make(map[string]struct{}),
		srcs: make(map[netip.Addr]struct{}),
	}
}

// AddSessions records n scanned sessions (matched or not).
func (b *StatsBuilder) AddSessions(n int) { b.sessions += n }

// AddAmbiguous records n ambiguous sessions among those already counted.
func (b *StatsBuilder) AddAmbiguous(n int) { b.ambiguous += n }

// AddSessionBatch records a batch of scanned sessions, counting the
// ambiguous ones — the one-call form every scan path uses so the ambiguity
// tally cannot be forgotten.
func (b *StatsBuilder) AddSessionBatch(sessions []tcpasm.Session) {
	b.sessions += len(sessions)
	for i := range sessions {
		if sessions[i].Ambiguous {
			b.ambiguous++
		}
	}
}

// AddEvents folds a batch of attributed events into the totals.
func (b *StatsBuilder) AddEvents(events []Event) {
	b.matched += len(events)
	for i := range events {
		if events[i].CVE != "" {
			b.cves[events[i].CVE] = struct{}{}
		}
		b.srcs[events[i].Src.Addr] = struct{}{}
	}
}

// Merge folds another builder's accumulated state into b, deduplicating
// distinct CVEs and sources across both — the same result as feeding every
// batch of both builders to one. o remains usable afterwards.
func (b *StatsBuilder) Merge(o *StatsBuilder) {
	b.sessions += o.sessions
	b.matched += o.matched
	b.ambiguous += o.ambiguous
	for cve := range o.cves {
		b.cves[cve] = struct{}{}
	}
	for src := range o.srcs {
		b.srcs[src] = struct{}{}
	}
}

// Clone returns an independent copy of the builder's state.
func (b *StatsBuilder) Clone() *StatsBuilder {
	c := NewStatsBuilder()
	c.Merge(b)
	return c
}

// AppendBinary appends a deterministic binary encoding of the builder's
// state to buf — the timeline checkpoint format: u64 sessions | u64 matched
// | u64 ambiguous | u32 n | n x u16-length CVE | u32 m | m x address, in
// internal/binfmt encodings. Equal states encode to equal bytes (sets are
// written sorted).
func (b *StatsBuilder) AppendBinary(buf []byte) []byte {
	buf = binfmt.AppendU64(buf, uint64(b.sessions))
	buf = binfmt.AppendU64(buf, uint64(b.matched))
	buf = binfmt.AppendU64(buf, uint64(b.ambiguous))
	cves := make([]string, 0, len(b.cves))
	for cve := range b.cves {
		cves = append(cves, cve)
	}
	sort.Strings(cves)
	buf = binfmt.AppendU32(buf, uint32(len(cves)))
	for _, cve := range cves {
		buf = binfmt.AppendString16(buf, cve)
	}
	srcs := make([]netip.Addr, 0, len(b.srcs))
	for src := range b.srcs {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Less(srcs[j]) }) // zero Addr, IPv4, IPv6
	buf = binfmt.AppendU32(buf, uint32(len(srcs)))
	for _, src := range srcs {
		buf = binfmt.AppendAddr(buf, src)
	}
	return buf
}

// DecodeStatsBuilder decodes an AppendBinary encoding. It returns an error
// (never panics) on malformed input or trailing bytes, since encodings come
// off disk.
func DecodeStatsBuilder(b []byte) (*StatsBuilder, error) {
	d := binfmt.NewDecoder(b)
	sb := NewStatsBuilder()
	sb.sessions = int(d.U64())
	sb.matched = int(d.U64())
	sb.ambiguous = int(d.U64())
	for n := d.Count(2); n > 0; n-- {
		sb.cves[d.String16()] = struct{}{}
	}
	for n := d.Count(1); n > 0; n-- {
		sb.srcs[d.Addr()] = struct{}{}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("ids: stats encoding: %w", err)
	}
	return sb, nil
}

// Stats returns the aggregate. The builder remains usable afterwards.
func (b *StatsBuilder) Stats() ScanStats {
	return ScanStats{
		Sessions:          b.sessions,
		MatchedEvents:     b.matched,
		DistinctCVEs:      len(b.cves),
		DistinctSrcIPs:    len(b.srcs),
		AmbiguousSessions: b.ambiguous,
	}
}

// setMatchStats fills the match-derived fields of stats (leaving the
// capture-derived Packets and DecodeErrors untouched). stats may be nil.
func setMatchStats(stats *ScanStats, sessions []tcpasm.Session, events []Event) {
	if stats == nil {
		return
	}
	b := NewStatsBuilder()
	b.AddSessionBatch(sessions)
	b.AddEvents(events)
	agg := b.Stats()
	stats.Sessions = agg.Sessions
	stats.MatchedEvents = agg.MatchedEvents
	stats.DistinctCVEs = agg.DistinctCVEs
	stats.DistinctSrcIPs = agg.DistinctSrcIPs
	stats.AmbiguousSessions = agg.AmbiguousSessions
}
