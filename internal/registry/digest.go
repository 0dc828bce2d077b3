package registry

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/binfmt"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/journal"
	"repro/internal/packet"
	"repro/internal/tcpasm"
)

// Per-session digests are what make retroactive re-attribution possible: at
// ingest time, every session (matched or not — unmatched sessions can gain a
// label when an earlier-published rule arrives later) persists the exact
// inputs the matcher consumed: normalized stream samples plus the session
// identity and its ingest-time label. A rescan reconstructs a
// tcpasm.Session from the digest and re-runs the engine cold; when the
// effective label differs from the recorded one, it emits an amendment.
//
// digests.log is a journal log (see internal/journal; records stay far
// below its default 1 MB cap given the sample caps) behind its own magic.
// Appends are buffered in the OS; Sync is called from the ingest checkpoint
// path so digest durability rides the same cadence as event durability. A
// lost tail after a crash costs re-attribution coverage for the lost
// sessions only.

var digestMagic = [8]byte{'S', 'D', 'I', 'G', 0x01, 0x01, 0x01, '\n'}

// DefaultSampleLimit caps each direction's stored stream sample. The
// telescope's sessions are short probes; 64 KiB keeps virtually all of them
// whole (Truncated marks the rest).
const DefaultSampleLimit = 64 << 10

// Digest is one session's matcher-relevant state.
type Digest struct {
	Start      time.Time
	Client     packet.Endpoint
	Server     packet.Endpoint
	ClientData []byte
	ServerData []byte
	Complete   bool
	// Truncated marks a digest whose samples hit the cap: a rescan over it
	// sees less than the cold pipeline did, so label differences are
	// advisory, not amendments.
	Truncated bool
	// Ambiguous carries the reassembler's overlap-conflict flag: the stored
	// stream sample reflects one overlap-policy choice among several the
	// wire permitted, so a rescan must weigh its verdict the same way the
	// live pipeline did.
	Ambiguous bool
	// OrigSID/OrigCVE/OrigPublished record the ingest-time label (zero SID =
	// no match).
	OrigSID       int
	OrigCVE       string
	OrigPublished time.Time
}

// Session reconstructs the matcher's view of the session. The fields the
// engine consults (Start, endpoints, stream data, Complete) round-trip; the
// rest (End, Packets) are not digested because no rule path reads them.
func (d *Digest) Session() tcpasm.Session {
	return tcpasm.Session{
		Client:     d.Client,
		Server:     d.Server,
		Start:      d.Start,
		ClientData: d.ClientData,
		ServerData: d.ServerData,
		Complete:   d.Complete,
		Ambiguous:  d.Ambiguous,
	}
}

// A digest record is Start | Client addr, port | Server addr, port |
// u32-length ClientData | u32-length ServerData | u8 flags (1 Complete,
// 2 Truncated, 4 Ambiguous) | u32 OrigSID | u16-length OrigCVE |
// OrigPublished, in internal/binfmt encodings.
func appendDigest(buf []byte, d *Digest) []byte {
	buf = binfmt.AppendTime(buf, d.Start)
	buf = binfmt.AppendAddr(buf, d.Client.Addr)
	buf = binfmt.AppendU16(buf, d.Client.Port)
	buf = binfmt.AppendAddr(buf, d.Server.Addr)
	buf = binfmt.AppendU16(buf, d.Server.Port)
	buf = binfmt.AppendBytes32(buf, d.ClientData)
	buf = binfmt.AppendBytes32(buf, d.ServerData)
	var flags byte
	if d.Complete {
		flags |= 1
	}
	if d.Truncated {
		flags |= 2
	}
	if d.Ambiguous {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binfmt.AppendU32(buf, uint32(d.OrigSID))
	buf = binfmt.AppendString16(buf, d.OrigCVE)
	return binfmt.AppendTime(buf, d.OrigPublished)
}

func decodeDigest(payload []byte) (Digest, error) {
	d := binfmt.NewDecoder(payload)
	dg := Digest{
		Start:      d.Time(),
		Client:     packet.Endpoint{Addr: d.Addr(), Port: d.U16()},
		Server:     packet.Endpoint{Addr: d.Addr(), Port: d.U16()},
		ClientData: append([]byte(nil), d.Bytes32()...),
		ServerData: append([]byte(nil), d.Bytes32()...),
	}
	flags := d.U8()
	dg.Complete = flags&1 != 0
	dg.Truncated = flags&2 != 0
	dg.Ambiguous = flags&4 != 0
	dg.OrigSID = int(d.U32())
	dg.OrigCVE = d.String16()
	dg.OrigPublished = d.Time()
	if err := d.Finish(); err != nil {
		return Digest{}, fmt.Errorf("registry: digest: %w", err)
	}
	return dg, nil
}

// digestLog is the open digest file.
type digestLog struct {
	fs   fault.FS
	path string

	mu  sync.Mutex
	log *journal.Log
	n   int64 // recovered + appended record count
}

func openDigestLog(fs fault.FS, dir string) (*digestLog, error) {
	l := &digestLog{fs: fs, path: filepath.Join(dir, "digests.log")}
	jl, err := journal.Open(fs, l.path, digestMagic, journal.MaxRecordLen, func(payload []byte) error {
		if _, err := decodeDigest(payload); err != nil {
			return err
		}
		l.n++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("registry: digest log: %w", err)
	}
	l.log = jl
	return l, nil
}

// Append writes digests. Durability arrives at the next Sync.
func (l *digestLog) Append(ds []Digest) error {
	if len(ds) == 0 {
		return nil
	}
	var buf, payload []byte
	for i := range ds {
		payload = appendDigest(payload[:0], &ds[i])
		buf = journal.AppendFrame(buf, payload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Append(buf); err != nil {
		return fmt.Errorf("registry: appending digests: %w", err)
	}
	l.n += int64(len(ds))
	return nil
}

// Sync fsyncs the log — called from the ingest checkpoint path.
func (l *digestLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Sync()
}

// Len returns the record count.
func (l *digestLog) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// walk re-reads the log from disk and streams every intact digest to fn —
// the rescan path. It reads a point-in-time prefix; records appended during
// the walk are covered by the next rescan.
func (l *digestLog) walk(fn func(Digest) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	if len(raw) < journal.HeaderLen {
		return nil
	}
	_, _, err = journal.ScanFrames(raw[journal.HeaderLen:], func(payload []byte) error {
		d, derr := decodeDigest(payload)
		if derr != nil {
			return derr
		}
		return fn(d)
	})
	return err
}

// DigestOf captures a session and its ingest-time label (ev nil = no match)
// under the sample cap.
func DigestOf(s *tcpasm.Session, ev *ids.Event, sampleLimit int) Digest {
	if sampleLimit <= 0 {
		sampleLimit = DefaultSampleLimit
	}
	d := Digest{
		Start:     s.Start,
		Client:    s.Client,
		Server:    s.Server,
		Complete:  s.Complete,
		Ambiguous: s.Ambiguous,
	}
	d.ClientData, d.Truncated = capSample(s.ClientData, sampleLimit, d.Truncated)
	d.ServerData, d.Truncated = capSample(s.ServerData, sampleLimit, d.Truncated)
	if ev != nil {
		d.OrigSID = ev.SID
		d.OrigCVE = ev.CVE
		d.OrigPublished = ev.Published
	}
	return d
}

func capSample(b []byte, limit int, truncated bool) ([]byte, bool) {
	if len(b) > limit {
		return append([]byte(nil), b[:limit]...), true
	}
	return append([]byte(nil), b...), truncated
}
