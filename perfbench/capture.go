package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
	"repro/wayback"
)

// studyCVEs is the number of distinct CVEs the paper attributes; every
// Scale-1 capture must recover all of them.
const studyCVEs = 63

// impairBase is capture-impaired's fixed damage profile. Its seed is derived
// from the workload seed (see impairProfile).
const impairBase = "loss=0.01,dup=0.02,reorder=0.05,abort=0.001"

func impairProfile(seed int64) (netsim.Profile, error) {
	return netsim.ParseProfile(fmt.Sprintf("%s,seed=%d", impairBase, seed))
}

// studyConfig is the study a capture workload runs: Scale 1 (the paper's
// ~115k events), streaming, every width 1 for capture-serial and host
// defaults for capture-impaired.
func studyConfig(serial bool, seed int64) wayback.Config {
	cfg := wayback.Config{Seed: seed, Scale: 1, Streaming: true}
	if serial {
		cfg.StreamSegments, cfg.ReasmShards, cfg.MatchWorkers = 1, 1, 1
	}
	return cfg
}

// captureRep is one untraced capture run.
type captureRep struct {
	setup, wall time.Duration
	cpu         time.Duration
	stats       ids.ScanStats
	dig         digest
	heapMiB     float64
	lagPeak     int
	impair      netsim.ImpairStats
	segPackets  []uint64 // frames read per segment (impaired only)
}

// runCaptureRep builds the study and runs the capture once, feeding events
// to a digesting sink. Set-up is the study build (ruleset parse, engine
// compile); the timed part is generation → frames → scan → sink.
func runCaptureRep(serial bool, seed int64, prof netsim.Profile) (*captureRep, error) {
	runtime.GC()
	rep := &captureRep{}
	t0 := time.Now()
	study, err := wayback.NewStudy(studyConfig(serial, seed))
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(t0)

	var stream atomic.Pointer[telescope.Stream]
	var lagPeak atomic.Int64
	hp := &heapPeak{}
	smp := startSampler(10*time.Millisecond, func() {
		hp.sample()
		var lag int
		if st := stream.Load(); st != nil {
			lag = st.Metrics().Lag
		} else if m, ok := study.StreamMetrics(); ok {
			lag = m.Lag
		}
		if int64(lag) > lagPeak.Load() {
			lagPeak.Store(int64(lag))
		}
	})
	sink := func(evs []ids.Event) error { rep.dig.add(evs); return nil }

	cpu0 := cpuTime()
	start := time.Now()
	if serial {
		var res *wayback.Results
		res, err = study.RunStream(sink)
		if res != nil {
			rep.stats = res.Stats
		}
	} else {
		var st *telescope.Stream
		st, err = study.StreamCapture()
		if err == nil {
			stream.Store(st)
			srcs := netsim.ImpairSources(st.PacketSources(), prof)
			rep.stats, err = ids.ScanCaptureStreamed(srcs, study.Engine(),
				ids.ScanConfig{DisjointSegments: true}, sink)
			st.Close()
			for _, s := range srcs {
				is := s.(*netsim.ImpairedSource).Stats()
				rep.segPackets = append(rep.segPackets, is.Read)
				addImpair(&rep.impair, is)
			}
		}
	}
	rep.wall = time.Since(start)
	rep.cpu = cpuTime() - cpu0
	smp.stop()
	rep.heapMiB = hp.mib()
	rep.lagPeak = int(lagPeak.Load())
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func addImpair(dst *netsim.ImpairStats, s netsim.ImpairStats) {
	dst.Read += s.Read
	dst.Emitted += s.Emitted
	dst.Lost += s.Lost
	dst.Duplicated += s.Duplicated
	dst.Reordered += s.Reordered
	dst.MTUDropped += s.MTUDropped
	dst.Aborted += s.Aborted
	dst.Killed += s.Killed
}

// check returns the rep's correctness failures against the reference digest
// and the number of distinct CVEs the reference attributes.
func (r *captureRep) check(ref *digest, wantCVEs int) []string {
	var bad []string
	if r.stats.DistinctCVEs != wantCVEs {
		bad = append(bad, fmt.Sprintf("distinct CVEs %d, want %d", r.stats.DistinctCVEs, wantCVEs))
	}
	if r.dig.n != r.stats.MatchedEvents {
		bad = append(bad, fmt.Sprintf("sink got %d events, stats say %d", r.dig.n, r.stats.MatchedEvents))
	}
	if r.dig.String() != ref.String() {
		bad = append(bad, fmt.Sprintf("event digest %s, reference %s", r.dig.String(), ref.String()))
	}
	return bad
}

// impairedReference is capture-impaired's independent reference: the same
// impaired segments scanned by the batch front-end at one shard. It returns
// the events' digest and distinct CVE count: loss and aborts can remove
// every session of a CVE with few events, so damaged traffic need not keep
// all 63.
func impairedReference(seed int64, prof netsim.Profile) (*digest, int, error) {
	study, err := wayback.NewStudy(studyConfig(false, seed))
	if err != nil {
		return nil, 0, err
	}
	st, err := study.StreamCapture()
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	evs, stats, err := ids.ScanCaptureSharded(netsim.ImpairSources(st.PacketSources(), prof),
		study.Engine(), ids.ScanConfig{Shards: 1, DisjointSegments: true})
	if err != nil {
		return nil, 0, err
	}
	d := &digest{}
	d.add(evs)
	return d, stats.DistinctCVEs, nil
}

// composition runs the capture path serially from public calls, one layer
// at a time, so that every traced span has a clear parent: frames are
// decoded (packet.DecodeInto), reassembled (tcpasm.Assembler), matched
// (ids.MatchSession) and emitted to a digesting sink. It is a
// telescope.PacketWriter, so telescope.StreamPcap can drive it directly.
// With a nil tracer it is the untraced serial reference.
type composition struct {
	tr   *tracer
	eng  *ids.Engine
	asm  *tcpasm.Assembler
	pkt  packet.Packet
	dig  digest
	one  [1]ids.Event
	cves map[string]bool

	// parent names the layer that calls WritePacket: telescope for
	// StreamPcap, none for the impaired read loop.
	parent string

	packets, bytes, decodeErrs int64
	sessions, ambiguous        int64
	openPeak                   int
	// extractSamples keeps copies of the first sessions' client streams for
	// the allocation probe, which runs after the capture.
	extractSamples [][]byte
}

const advanceEvery = 4096 // packets between idle sweeps, as in ids.ScanCapture

func newComposition(tr *tracer, eng *ids.Engine) *composition {
	return &composition{tr: tr, eng: eng, asm: tcpasm.NewAssembler(tcpasm.Config{}), cves: map[string]bool{}}
}

func (c *composition) WritePacket(ts time.Time, data []byte) error {
	c.packets++
	c.bytes += int64(len(data))
	w := c.tr.now()
	t := c.tr.now()
	err := packet.DecodeInto(&c.pkt, data)
	c.tr.end("packet", "write", c.packets, t)
	if err != nil {
		c.decodeErrs++
		c.tr.end("write", c.parent, c.packets, w)
		return nil
	}
	t = c.tr.now()
	c.asm.Feed(ts, &c.pkt)
	var done []tcpasm.Session
	if c.packets%advanceEvery == 0 {
		done = c.asm.Drain(ts)
	}
	c.tr.end("tcpasm", "write", c.packets, t)
	if c.tr != nil {
		if n := c.asm.OpenConns(); n > c.openPeak {
			c.openPeak = n
		}
	}
	c.match(done, "write")
	c.tr.end("write", c.parent, c.packets, w)
	return nil
}

// Flush closes every open connection at end of capture and matches the rest.
func (c *composition) Flush() error {
	t := c.tr.now()
	c.asm.Flush()
	done := c.asm.Sessions()
	c.tr.end("tcpasm", "flush", c.packets, t)
	c.match(done, "flush")
	return nil
}

func (c *composition) match(done []tcpasm.Session, parent string) {
	for i := range done {
		s := &done[i]
		c.sessions++
		if s.Ambiguous {
			c.ambiguous++
		}
		if c.tr != nil {
			// The extraction probe is a separate call on the same bytes;
			// MatchSession extracts again internally, so its time is kept
			// out of the layer accounting (see report).
			t := time.Now()
			_ = ids.ExtractBuffers(s.ClientData)
			c.tr.end("ids.extract", parent, c.sessions, t)
			if len(c.extractSamples) < 4096 {
				c.extractSamples = append(c.extractSamples, append([]byte(nil), s.ClientData...))
			}
		}
		t := c.tr.now()
		ev, ok := ids.MatchSession(s, c.eng)
		c.tr.end("ids", parent, c.sessions, t)
		if !ok {
			continue
		}
		t = c.tr.now()
		c.one[0] = ev
		c.dig.add(c.one[:])
		c.cves[ev.CVE] = true
		c.tr.end("emit", parent, c.sessions, t)
	}
}

// extractAllocs measures heap allocations per ExtractBuffers call over the
// kept samples. It runs after the capture, when nothing else allocates.
func (c *composition) extractAllocs() float64 {
	if len(c.extractSamples) == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range c.extractSamples {
		_ = ids.ExtractBuffers(b)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(c.extractSamples))
}

// timedBlueprints wraps the scanner's lazy workload so each Next is a span.
type timedBlueprints struct {
	src telescope.BlueprintSource
	tr  *tracer
	n   int64
}

func (s *timedBlueprints) Next() (scanner.Blueprint, bool) {
	t := s.tr.now()
	bp, ok := s.src.Next()
	s.tr.end("scanner", "telescope", s.n, t)
	if ok {
		s.n++
	}
	return bp, ok
}

// timedSource wraps a zero-copy capture source so each record is a span of
// the given layer.
type timedSource struct {
	src           pcapio.ZeroCopySource
	tr            *tracer
	layer, parent string
	n, bytes      int64
}

func (s *timedSource) NextInto(p *pcapio.Packet) error {
	t := s.tr.now()
	err := s.src.NextInto(p)
	s.n++
	s.tr.end(s.layer, s.parent, s.n, t)
	if err == nil {
		s.bytes += int64(len(p.Data))
	}
	return err
}

func (s *timedSource) Next() (pcapio.Packet, error) {
	var p pcapio.Packet
	err := s.NextInto(&p)
	return p, err
}

// composed is the outcome of one serial composition run.
type composed struct {
	wall time.Duration
	comp *composition
	eng  *ids.Engine
	bps  int64
	seg  *timedSource // the telescope segment read by the impaired loop
}

// runComposition runs the serial composition for the workload. capture-serial
// drives telescope.StreamPcap over a timed scanner stream; capture-impaired
// reads a one-segment telescope stream wrapped by netsim.Impair.
func runComposition(serial bool, seed int64, prof netsim.Profile, tr *tracer) (*composed, error) {
	runtime.GC()
	study, err := wayback.NewStudy(studyConfig(serial, seed))
	if err != nil {
		return nil, err
	}
	eng := study.Engine()
	eng.ResetProfile()
	// The study's own workload configuration: Seed and Scale, no noise or
	// legacy overrides (see wayback.Study.StreamCapture).
	src, err := scanner.NewStream(scanner.Config{Seed: seed, Scale: 1})
	if err != nil {
		return nil, err
	}
	bps := &timedBlueprints{src: src, tr: tr}
	tel := telescope.NewSim(telescope.SimConfig{Seed: seed})
	comp := newComposition(tr, eng)
	if serial {
		comp.parent = "telescope"
	}

	out := &composed{comp: comp, eng: eng}
	start := time.Now()
	if serial {
		t := tr.now()
		err = tel.StreamPcap(bps, comp)
		tr.end("telescope.incl", "", 0, t)
	} else {
		st := tel.Stream(bps, telescope.StreamConfig{Segments: 1})
		out.seg = &timedSource{src: st.Segments()[0], tr: tr, layer: "telescope", parent: "netsim"}
		err = impairedLoop(out.seg, prof, comp, tr)
		st.Close()
	}
	out.wall = time.Since(start)
	out.bps = bps.n
	if err != nil {
		return nil, err
	}
	return out, nil
}

func impairedLoop(seg *timedSource, prof netsim.Profile, comp *composition, tr *tracer) error {
	src := &timedSource{src: netsim.Impair(seg, prof), tr: tr, layer: "netsim.incl"}
	var rec pcapio.Packet
	for {
		err := src.NextInto(&rec)
		if errors.Is(err, io.EOF) {
			return comp.Flush()
		}
		if err != nil {
			return err
		}
		if err := comp.WritePacket(rec.Timestamp, rec.Data); err != nil {
			return err
		}
	}
}

// captureUntraced repeats the capture for the measurement time (at least
// three runs) and reports medians, so the first run's warm-up is absorbed.
// Each run is checked against one independent reference computed after the
// timed runs.
func captureUntraced(serial bool, seed int64, seconds float64, r *report) error {
	prof, err := impairProfile(seed)
	if err != nil {
		return err
	}
	begin := time.Now()
	var reps []*captureRep
	for len(reps) < 3 || time.Since(begin).Seconds() < seconds {
		rep, err := runCaptureRep(serial, seed, prof)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}

	ref, wantCVEs := (*digest)(nil), studyCVEs
	if serial {
		c, err := runComposition(true, seed, prof, nil)
		if err != nil {
			return err
		}
		ref = &c.comp.dig
	} else if ref, wantCVEs, err = impairedReference(seed, prof); err != nil {
		return err
	}
	var setup, rate, heap, cpu, wall []float64
	for i, rep := range reps {
		r.check(fmt.Sprintf("run %d", i), strings.Join(rep.check(ref, wantCVEs), "; "))
		setup = append(setup, rep.setup.Seconds())
		rate = append(rate, float64(rep.dig.n)/rep.wall.Seconds())
		heap = append(heap, rep.heapMiB)
		cpu = append(cpu, float64(rep.cpu)/float64(time.Microsecond)/float64(rep.dig.n))
		wall = append(wall, rep.wall.Seconds())
	}
	n := len(reps)
	r.metric("setup_s", median(setup), "s", n, "study build: ruleset parse + engine compile; median of runs")
	r.metric("events_per_s", median(rate), "events/s", n, "attributed events / capture wall; median of runs")
	r.metric("heap_peak_mib", median(heap), "MiB", n, "peak /gc/heap/live:bytes during the capture; median of runs")
	r.metric("cpu_us_per_event", median(cpu), "us", n, "process CPU during the capture / events; median of runs")
	r.info("queryable_s", median(wall), "s", n, "capture start to final scan stats; median of runs")
	r.info("events_per_s.first_run", rate[0], "events/s", 1, "warm-up run, included in the median")
	runs := make([]string, len(rate))
	for i, v := range rate {
		runs[i] = fmt.Sprintf("%.0f", v)
	}
	fmt.Printf("# events_per_s by run: %s\n", strings.Join(runs, " "))
	last := reps[n-1]
	r.info("capture.packets", float64(last.stats.Packets), "count", 1, "")
	r.info("capture.sessions", float64(last.stats.Sessions), "count", 1, "")
	r.info("capture.events", float64(last.stats.MatchedEvents), "count", 1, "digest "+ref.String())
	r.info("capture.distinct_cves", float64(last.stats.DistinctCVEs), "count", 1, fmt.Sprintf("reference %d", wantCVEs))
	r.info("capture.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 1, "")
	return nil
}

// captureTraced runs one warm-up and one untraced capture, then the traced
// serial composition, and reports per-layer metrics from the trace. The
// traced run must produce the untraced run's event digest.
func captureTraced(serial bool, seed int64, r *report) error {
	prof, err := impairProfile(seed)
	if err != nil {
		return err
	}
	if _, err := runCaptureRep(serial, seed, prof); err != nil { // warm-up
		return err
	}
	rep, err := runCaptureRep(serial, seed, prof)
	if err != nil {
		return err
	}
	tr := newTracer()
	c, err := runComposition(serial, seed, prof, tr)
	if err != nil {
		return err
	}
	wantCVEs := len(c.comp.cves)
	if serial {
		wantCVEs = studyCVEs
	}
	r.check("untraced run vs traced composition", strings.Join(rep.check(&c.comp.dig, wantCVEs), "; "))

	comp := c.comp
	ns := func(layer string) float64 { _, v := tr.total(layer); return v }
	per := func(v float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	events := int64(comp.dig.n)
	var evaluated, matched int64
	for _, p := range c.eng.Profile() {
		evaluated += p.Evaluated
		matched += p.Matched
	}

	// Self times. In the serial composition telescope.StreamPcap encloses
	// the scanner and the writer; in the impaired loop the scanner runs on
	// the stream's routing goroutine, concurrently with the read loop.
	inner := ns("packet") + ns("tcpasm") + ns("ids") + ns("emit") + ns("ids.extract")
	self := map[string]float64{
		"packet": ns("packet"), "tcpasm": ns("tcpasm"), "ids": ns("ids"), "emit": ns("emit"),
		"harness": ns("write") - inner,
	}
	var telPackets int64
	var telBytes int64
	if serial {
		self["scanner"] = ns("scanner")
		self["telescope"] = ns("telescope.incl") - ns("scanner") - ns("write")
		telPackets, telBytes = comp.packets, comp.bytes
	} else {
		self["telescope"] = ns("telescope")
		self["netsim"] = ns("netsim.incl") - ns("telescope")
		self["harness"] += float64(c.wall) - ns("netsim.incl") - ns("write")
		telPackets, _ = tr.total("telescope")
		telPackets-- // the final call returns EOF
		telBytes = c.seg.bytes
	}
	tracedWall := float64(c.wall) - ns("ids.extract")

	r.metric("scanner.blueprints", float64(c.bps), "count", 1, "")
	r.metric("scanner.self_ns_per_blueprint", per(ns("scanner"), c.bps), "ns", int(c.bps), "")
	r.metric("telescope.packets", float64(telPackets), "count", 1, "")
	r.metric("telescope.bytes", float64(telBytes), "B", 1, "")
	r.metric("telescope.self_ns_per_packet", per(self["telescope"], telPackets), "ns", int(telPackets), "")
	r.metric("telescope.lag_peak", float64(rep.lagPeak), "count", 1, "untraced run, sampled every 10ms")
	skew := 1.0
	if len(rep.segPackets) > 0 {
		var sum, hi float64
		for _, p := range rep.segPackets {
			sum += float64(p)
			hi = max(hi, float64(p))
		}
		skew = hi / (sum / float64(len(rep.segPackets)))
	}
	r.metric("telescope.segment_skew", skew, "ratio", max(1, len(rep.segPackets)), "max/mean packets per segment, untraced run")
	r.metric("netsim.self_ns_per_frame", per(self["netsim"], telPackets), "ns", int(telPackets), "")
	r.metric("netsim.dropped", float64(rep.impair.Lost+rep.impair.MTUDropped+rep.impair.Killed), "count", 1, "lost + MTU + killed after abort")
	r.metric("netsim.duplicated", float64(rep.impair.Duplicated), "count", 1, "")
	r.metric("netsim.reordered", float64(rep.impair.Reordered), "count", 1, "")
	r.metric("netsim.aborted", float64(rep.impair.Aborted), "count", 1, "")
	decodes, _ := tr.total("packet")
	r.metric("packet.decode_ns_per_packet", per(ns("packet"), decodes), "ns", int(decodes), "")
	r.metric("packet.decode_errors", float64(comp.decodeErrs), "count", 1, "")
	r.metric("tcpasm.feed_ns_per_packet", per(ns("tcpasm"), comp.packets), "ns", int(comp.packets), "Feed + Drain + Flush")
	r.metric("tcpasm.sessions", float64(comp.sessions), "count", 1, "")
	r.metric("tcpasm.open_conns_peak", float64(comp.openPeak), "count", 1, "")
	r.metric("tcpasm.ambiguous_sessions", float64(comp.ambiguous), "count", 1, "")
	r.metric("ids.extract_ns_per_session", per(ns("ids.extract"), comp.sessions), "ns", int(comp.sessions), "separate ExtractBuffers call")
	r.metric("ids.extract_allocs_per_session", comp.extractAllocs(), "allocs", len(comp.extractSamples), "")
	r.metric("ids.match_ns_per_session", per(ns("ids"), comp.sessions), "ns", int(comp.sessions), "MatchSession")
	r.metric("ids.matched_ratio", per(float64(events), comp.sessions), "ratio", int(comp.sessions), "events per session")
	r.metric("ids.rules_evaluated_per_session", per(float64(evaluated), comp.sessions), "rules", int(comp.sessions), "Engine.Profile, past the prefilter")
	r.metric("ids.rule_hit_ratio", per(float64(matched), evaluated), "ratio", int(evaluated), "rule matches / rule evaluations")
	r.metric("emit.ns_per_event", per(ns("emit"), events), "ns", int(events), "digesting sink")
	zeroDaemonLayers(r)
	r.metric("loadgen.late_ms_max", 0, "ms", 0, "no load generator on capture workloads")
	r.metric("trace.overhead_frac", tracedWall/float64(rep.wall)-1, "ratio", 1,
		"traced composition wall (less the extraction probe) / untraced run wall - 1")

	// Accounting: the layers' self times sum to the traced wall.
	var sum float64
	for _, l := range []string{"scanner", "telescope", "netsim", "packet", "tcpasm", "ids", "emit", "harness"} {
		v, ok := self[l]
		if !ok {
			continue
		}
		note := ""
		if l == "scanner" && !serial {
			note = "concurrent on the routing goroutine; not on the read loop"
		} else {
			sum += v
		}
		r.info("self_s."+l, v/1e9, "s", 1, note)
	}
	r.info("self_s.sum", sum/1e9, "s", 1, "")
	r.info("wall_s.traced", tracedWall/1e9, "s", 1, "less the extraction probe")
	r.info("wall_s.untraced", rep.wall.Seconds(), "s", 1, "")
	r.info("self_s.extract_probe", ns("ids.extract")/1e9, "s", 1, "excluded from the sum")
	if path, err := tr.write(".bench_build/perfbench-trace", fmt.Sprintf("%s-seed%d.json", workloadName(serial), seed)); err == nil {
		fmt.Printf("# spans written to %s (%d kept)\n", path, len(tr.spans))
	} else {
		return err
	}
	return nil
}

func workloadName(serial bool) string {
	if serial {
		return "capture-serial"
	}
	return "capture-impaired"
}

// zeroDaemonLayers reports the daemon-only layers as 0 on capture workloads.
func zeroDaemonLayers(r *report) {
	for _, n := range perLayer {
		for _, p := range []string{"fleet.", "eventstore.", "timeline.", "results.", "serve."} {
			if strings.HasPrefix(n, p) {
				r.metric(n, 0, unitOf(n), 0, "not exercised")
			}
		}
	}
}
