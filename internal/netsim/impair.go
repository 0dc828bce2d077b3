package netsim

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/pcapio"
)

// Impairment profiles: seeded, composable network damage for any capture
// stream. A Profile wraps a pcapio.PacketSource (Impair) and applies loss,
// duplication, bounded reordering, MTU blackholes, and mid-stream aborts
// (injected RSTs) to the frames flowing through it.
//
// Determinism is the whole point, and it is *content-addressed*: every
// per-frame decision is a PRF of (profile seed, frame bytes), not of stream
// position. The same frame meets the same fate no matter which capture
// segment carries it or in what order segments are consumed, so an impaired
// workload replays byte-identically across runs, and the sharded front-end
// sees exactly the frames the serial one does. An exact duplicate of a
// frame is emitted verbatim (copies are never re-impaired), which keeps the
// content-addressing from cascading — a duplicated frame cannot duplicate
// itself again.

// Profile describes one impairment mix. The zero value impairs nothing.
type Profile struct {
	// Seed keys every per-frame decision. Two profiles with different
	// seeds damage a capture in independent ways.
	Seed int64
	// LossProb is the per-frame probability the frame is silently dropped.
	LossProb float64
	// DupProb is the per-frame probability the frame is emitted twice
	// back-to-back (the duplicate is exempt from further impairment).
	DupProb float64
	// ReorderProb is the per-frame probability the frame is held back and
	// released after ReorderSpan subsequent frames.
	ReorderProb float64
	// ReorderSpan is how many later frames overtake a held one. Zero means
	// the default of 3.
	ReorderSpan int
	// MTU, when > 0, black-holes every frame longer than MTU bytes — the
	// path-MTU blackhole, where big segments vanish without an ICMP clue.
	MTU int
	// AbortProb is the per-frame probability the frame is replaced by a
	// mid-stream RST for its flow; every later frame of that flow is
	// dropped (the connection is dead on the wire).
	AbortProb float64
}

func (p Profile) withDefaults() Profile {
	if p.ReorderSpan == 0 {
		p.ReorderSpan = 3
	}
	return p
}

// Active reports whether the profile impairs anything at all.
func (p Profile) Active() bool {
	return p.LossProb > 0 || p.DupProb > 0 || p.ReorderProb > 0 || p.MTU > 0 || p.AbortProb > 0
}

// NetProfile maps the frame-level profile onto the fault package's
// connection-level fault schedule, so one impairment spec drives both the
// capture path (Impair) and live fleet links (fault.NewNetwork): aborts
// become byte-budget resets, reordering becomes write delay jitter.
func (p Profile) NetProfile() fault.NetProfile {
	p = p.withDefaults()
	np := fault.NetProfile{ResetProb: p.AbortProb}
	if p.ReorderProb > 0 {
		np.MaxDelay = time.Duration(p.ReorderSpan) * time.Millisecond
	}
	return np
}

// String renders the profile in ParseProfile's spec syntax.
func (p Profile) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("loss", p.LossProb)
	add("dup", p.DupProb)
	add("reorder", p.ReorderProb)
	if p.ReorderSpan > 0 && p.ReorderSpan != 3 {
		parts = append(parts, fmt.Sprintf("span=%d", p.ReorderSpan))
	}
	if p.MTU > 0 {
		parts = append(parts, fmt.Sprintf("mtu=%d", p.MTU))
	}
	add("abort", p.AbortProb)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseProfile parses a comma-separated impairment spec, e.g.
// "loss=0.01,dup=0.02,reorder=0.05,span=4,mtu=1400,abort=0.001,seed=7".
// An empty spec (or "none") is the inactive zero Profile.
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("netsim: impairment spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "loss":
			p.LossProb, err = parseProb(v)
		case "dup":
			p.DupProb, err = parseProb(v)
		case "reorder":
			p.ReorderProb, err = parseProb(v)
		case "abort":
			p.AbortProb, err = parseProb(v)
		case "span":
			p.ReorderSpan, err = strconv.Atoi(v)
		case "mtu":
			p.MTU, err = strconv.Atoi(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return p, fmt.Errorf("netsim: impairment spec: unknown key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("netsim: impairment spec %q: %w", kv, err)
		}
	}
	return p, nil
}

func parseProb(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %g outside [0,1]", f)
	}
	return f, nil
}

// Decision kinds — PRF tweaks so one frame's rolls are independent.
const (
	rollLoss uint64 = iota + 1
	rollDup
	rollReorder
	rollAbort
)

// roll is the per-frame PRF: an FNV-1a hash of (seed, kind, frame bytes)
// mapped to [0,1). Content-addressed, so a frame's fate is independent of
// stream position, segment assignment, and consumption order.
func (p Profile) roll(kind uint64, frame []byte) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(p.Seed))
	mix(kind)
	for _, b := range frame {
		h ^= uint64(b)
		h *= prime64
	}
	return float64(h>>11) / (1 << 53)
}

// ImpairStats counts what a profile did to a stream.
type ImpairStats struct {
	Read       uint64 // frames pulled from the wrapped source
	Emitted    uint64 // frames handed downstream (incl. dups and RSTs)
	Lost       uint64 // frames dropped by LossProb
	Duplicated uint64 // extra copies emitted
	Reordered  uint64 // frames held and released late
	MTUDropped uint64 // frames black-holed by MTU
	Aborted    uint64 // RSTs injected
	Killed     uint64 // frames dropped because their flow was aborted
}

// ImpairedSource applies a Profile to a wrapped capture source. It
// implements pcapio.PacketSource and pcapio.ZeroCopySource, so it drops
// into every scan path: ids.ScanCapture, and ids.FeedCapture under the
// sharded and streamed scans and the ingest tailer.
type ImpairedSource struct {
	src     pcapio.PacketSource
	zc      pcapio.ZeroCopySource
	profile Profile

	queue  []impFrame // ready to emit, FIFO
	held   []impFrame // reordered frames counting down to release
	killed map[packet.Flow]bool
	bld    *packet.Builder
	dec    packet.Packet
	free   [][]byte
	eof    bool

	stats ImpairStats
}

type impFrame struct {
	ts      time.Time
	data    []byte
	origLen int
	after   int // frames still to overtake a held one
}

// Impair wraps src with the profile's seeded damage. An inactive profile
// still works (the wrapper is then a plain pass-through).
func Impair(src pcapio.PacketSource, p Profile) *ImpairedSource {
	s := &ImpairedSource{
		src:     src,
		profile: p.withDefaults(),
		killed:  make(map[packet.Flow]bool),
		bld:     packet.NewBuilder(p.Seed),
	}
	s.zc, _ = src.(pcapio.ZeroCopySource)
	return s
}

// Stats returns what the profile has done so far.
func (s *ImpairedSource) Stats() ImpairStats { return s.stats }

// Next returns the next impaired frame; Data is owned by the caller.
func (s *ImpairedSource) Next() (pcapio.Packet, error) {
	var p pcapio.Packet
	if err := s.NextInto(&p); err != nil {
		return pcapio.Packet{}, err
	}
	p.Data = append([]byte(nil), p.Data...)
	return p, nil
}

// NextInto fills p with the next impaired frame, reusing p.Data's capacity.
func (s *ImpairedSource) NextInto(p *pcapio.Packet) error {
	for len(s.queue) == 0 {
		if err := s.step(); err != nil {
			return err
		}
	}
	f := s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue = s.queue[:len(s.queue)-1]
	p.Timestamp = f.ts
	p.OrigLen = f.origLen
	if cap(p.Data) >= len(f.data) {
		p.Data = p.Data[:len(f.data)]
	} else {
		p.Data = make([]byte, len(f.data))
	}
	copy(p.Data, f.data)
	s.free = append(s.free, f.data[:0])
	s.stats.Emitted++
	return nil
}

// step pulls one frame from the wrapped source, decides its fate, and moves
// due frames onto the emission queue. At EOF the remaining held frames are
// released in hold order.
func (s *ImpairedSource) step() error {
	if s.eof {
		if len(s.held) == 0 {
			return io.EOF
		}
		s.queue = append(s.queue, s.held...)
		s.held = s.held[:0]
		return nil
	}
	var rec pcapio.Packet
	var err error
	if s.zc != nil {
		rec.Data = s.buf()
		err = s.zc.NextInto(&rec)
	} else {
		rec, err = s.src.Next()
	}
	if err == io.EOF {
		s.eof = true
		return nil
	}
	if err != nil {
		return err
	}
	s.stats.Read++

	// Countdown first: the incoming frame overtakes every held one.
	due := 0
	for i := range s.held {
		s.held[i].after--
		if s.held[i].after <= 0 && due == i {
			due++
		}
	}

	p := s.profile
	emit := true
	duplicate := false
	hold := false
	frame := rec.Data
	switch {
	case s.isKilled(frame):
		s.stats.Killed++
		emit = false
	case p.MTU > 0 && len(frame) > p.MTU:
		s.stats.MTUDropped++
		emit = false
	case p.LossProb > 0 && p.roll(rollLoss, frame) < p.LossProb:
		s.stats.Lost++
		emit = false
	case p.AbortProb > 0 && p.roll(rollAbort, frame) < p.AbortProb && s.abort(rec):
		// abort() queued the RST and killed the flow.
		emit = false
	default:
		if p.ReorderProb > 0 && p.roll(rollReorder, frame) < p.ReorderProb {
			hold = true
			s.stats.Reordered++
		} else if p.DupProb > 0 && p.roll(rollDup, frame) < p.DupProb {
			duplicate = true
			s.stats.Duplicated++
		}
	}
	if emit {
		f := impFrame{ts: rec.Timestamp, data: s.copyBuf(frame), origLen: rec.OrigLen}
		if hold {
			f.after = p.ReorderSpan
			s.held = append(s.held, f)
		} else {
			s.queue = append(s.queue, f)
			if duplicate {
				s.queue = append(s.queue, impFrame{ts: rec.Timestamp, data: s.copyBuf(frame), origLen: rec.OrigLen})
			}
		}
	}
	if due > 0 {
		s.queue = append(s.queue, s.held[:due]...)
		s.held = append(s.held[:0], s.held[due:]...)
	}
	if s.zc != nil {
		s.free = append(s.free, rec.Data[:0])
	}
	return nil
}

// isKilled reports whether the frame belongs to an aborted flow. Frames
// that do not decode belong to no flow.
func (s *ImpairedSource) isKilled(frame []byte) bool {
	if len(s.killed) == 0 {
		return false
	}
	if packet.DecodeInto(&s.dec, frame) != nil {
		return false
	}
	return s.killed[s.dec.Flow().Canonical()]
}

// abort replaces a decodable frame with a mid-stream RST for its flow and
// marks the flow dead. Undecodable frames cannot be aborted (no flow to
// kill); the caller then falls through to the remaining impairments.
func (s *ImpairedSource) abort(rec pcapio.Packet) bool {
	if packet.DecodeInto(&s.dec, rec.Data) != nil {
		return false
	}
	flow := s.dec.Flow()
	// Reset before building: the RST's bytes are then a pure function of
	// (seed, flow, seq) — content-addressed like every other decision —
	// rather than of how many aborts this particular wrapper saw first.
	s.bld.Reset(s.profile.Seed)
	rst, err := s.bld.BuildTo(s.buf(), packet.Segment{
		Src:   flow.Src,
		Dst:   flow.Dst,
		Seq:   s.dec.TCP.Seq,
		Flags: packet.FlagRST,
	})
	if err != nil {
		return false
	}
	s.killed[flow.Canonical()] = true
	s.queue = append(s.queue, impFrame{ts: rec.Timestamp, data: rst, origLen: len(rst)})
	s.stats.Aborted++
	return true
}

func (s *ImpairedSource) buf() []byte {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	return make([]byte, 0, 2048)
}

func (s *ImpairedSource) copyBuf(frame []byte) []byte {
	return append(s.buf(), frame...)
}

// ImpairSources wraps each source with its own state machine under the same
// profile — the multi-segment form. Content-addressed decisions mean the
// per-frame fates are identical to wrapping a concatenation of the sources,
// as long as each flow stays within one source (the flow-disjoint contract).
func ImpairSources(srcs []pcapio.PacketSource, p Profile) []pcapio.PacketSource {
	if !p.Active() {
		return srcs
	}
	out := make([]pcapio.PacketSource, len(srcs))
	for i, src := range srcs {
		out[i] = Impair(src, p)
	}
	return out
}
