package ids

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/tcpasm"
)

// seededWorkload builds a pseudo-random session mix (exploit payloads,
// noise, repeated sources, CVE-less rule hits) from a fixed seed, so the
// serial/parallel parity check runs over something closer to a real capture
// than the round-robin fixture.
func seededWorkload(t testing.TB, seed int64, n int) ([]tcpasm.Session, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sessions, engine := parallelFixture(t, 1)
	payloads := [][]byte{
		[]byte("GET /?x=${jndi:ldap://e} HTTP/1.1\r\nHost: h\r\n\r\n"),
		[]byte("GET /%24%7B(x)%7D/ HTTP/1.1\r\nHost: h\r\n\r\n"),
		[]byte("PUT /SDK/webLanguage HTTP/1.1\r\nHost: h\r\n\r\n"),
		[]byte("GET /robots.txt HTTP/1.1\r\nHost: h\r\n\r\n"),
		[]byte("HEAD / HTTP/1.0\r\n\r\n"),
	}
	base := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]tcpasm.Session, n)
	for i := range out {
		// A third of traffic comes from a small repeat-scanner pool, so
		// DistinctSrcIPs genuinely deduplicates.
		var src string
		if rng.Intn(3) == 0 {
			src = fmt.Sprintf("198.51.100.%d", 1+rng.Intn(16))
		} else {
			src = fmt.Sprintf("203.0.%d.%d", rng.Intn(200), 1+rng.Intn(250))
		}
		out[i] = tcpasm.Session{
			Client:     packet.Endpoint{Addr: packet.MustAddr(src), Port: uint16(1024 + rng.Intn(60000))},
			Server:     sessions[0].Server,
			Start:      base.Add(time.Duration(rng.Intn(86400)) * time.Second),
			ClientData: payloads[rng.Intn(len(payloads))],
			Complete:   true,
		}
	}
	return out, engine
}

func TestStatsParitySerialParallelSeeded(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		sessions, engine := seededWorkload(t, seed, 900)
		var serial, par ScanStats
		se := MatchSessions(sessions, engine, &serial, 1, nil)
		pe := MatchSessions(sessions, engine, &par, 4, nil)
		if len(se) != len(pe) {
			t.Fatalf("seed %d: %d serial events vs %d parallel", seed, len(se), len(pe))
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("seed %d: event %d differs:\n%+v\n%+v", seed, i, se[i], pe[i])
			}
		}
		if serial != par {
			t.Fatalf("seed %d: stats diverge:\nserial   %+v\nparallel %+v", seed, serial, par)
		}
		if serial.Sessions != 900 || serial.MatchedEvents == 0 || serial.DistinctSrcIPs == 0 {
			t.Fatalf("seed %d: implausible stats %+v", seed, serial)
		}
		if serial.DistinctSrcIPs >= serial.MatchedEvents && serial.MatchedEvents > 20 {
			t.Fatalf("seed %d: no source dedup happened: %+v", seed, serial)
		}
	}
}

func TestStatsBuilderIncrementalMatchesOneShot(t *testing.T) {
	sessions, engine := seededWorkload(t, 5, 600)
	var oneShot ScanStats
	events := MatchSessions(sessions, engine, &oneShot, 1, nil)

	// Feeding the same events in arbitrary batch splits must aggregate to
	// the identical stats — this is what the streaming ingest path relies on.
	b := NewStatsBuilder()
	b.AddSessions(200)
	b.AddSessions(400)
	for i := 0; i < len(events); i += 17 {
		end := i + 17
		if end > len(events) {
			end = len(events)
		}
		b.AddEvents(events[i:end])
	}
	if got := b.Stats(); got != oneShot {
		t.Fatalf("incremental %+v != one-shot %+v", got, oneShot)
	}
}
