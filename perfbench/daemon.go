package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datasets"
	"repro/internal/eventstore"
	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/serve"
	"repro/internal/timeline"
	"repro/wayback"
)

// The daemon workload's fixed parameters. Rates are offered open-loop:
// each batch and each read has a scheduled time, and latency is measured
// from it, so a stall shows as latency on everything scheduled behind it.
const (
	batchEvents     = 100                    // events per fleet batch
	ingestRate      = 4000.0                 // offered events/s in the live phase
	liveReadRate    = 10.0                   // offered /v1 reads/s in the live phase
	settledReadRate = 150.0                  // offered /v1 reads/s in the settled phase
	readStart       = time.Second            // live reads start once the store holds events
	safeMargin      = time.Second            // a lifecycle read names only CVEs shipped this long before it
	minSettled      = 8 * time.Second        // the settled phase runs at least this long
	tickEvery       = 100 * time.Millisecond // timeline Tick interval
	asofInstants    = 16                     // distinct ?asof= instants per seed
	setupRepeats    = 3                      // set-ups timed per run; the last one is measured
)

// readCycle is the read mix as a fixed interleave: the loadsmoke mix
// (tables/4:4, tables/5:2, figures/3:1, figures/7:1) plus lifecycles:2.
// Every fourth read carries ?asof=. Reads walk the cycle in order, so every
// seed asks for the same kinds of work at the same points of a phase; the
// seed picks the as-of instants and the lifecycle CVEs.
var readCycle = []string{
	"tables/4", "tables/5", "tables/4", "figures/3", "lifecycles/",
	"tables/4", "tables/5", "figures/7", "tables/4", "lifecycles/",
}

const asofEvery = 4 // one read in four carries ?asof=

// storeSink is the listener-side view of the store: the optional interfaces
// fleet.Listener type-asserts on its sink. A wrapper that loses any of them
// silently moves the listener to another commit path.
type (
	syncer        interface{ Sync() error }
	metaCommitter interface {
		CommitFunc(metaFn func() []byte) error
		CommitMeta() []byte
	}
	hookAppender interface {
		AppendBatchFunc(events []ids.Event, applied func()) error
	}
)

func sinkShape(s fleet.Sink) string {
	_, a := s.(syncer)
	_, b := s.(metaCommitter)
	_, c := s.(hookAppender)
	return fmt.Sprintf("Sync=%v CommitFunc/CommitMeta=%v AppendBatchFunc=%v", a, b, c)
}

// timedStore times the store calls the fleet listener makes and forwards
// every optional interface the listener looks for.
type timedStore struct {
	st *eventstore.Store
	tr *tracer

	appendNs, appendEvents atomic.Int64
	mu                     sync.Mutex
	commitNs               []float64
}

func (t *timedStore) AppendBatch(evs []ids.Event) error {
	return t.AppendBatchFunc(evs, nil)
}

func (t *timedStore) AppendBatchFunc(evs []ids.Event, applied func()) error {
	s := time.Now()
	err := t.st.AppendBatchFunc(evs, applied)
	t.appendNs.Add(int64(time.Since(s)))
	t.appendEvents.Add(int64(len(evs)))
	t.tr.end("eventstore.append", "fleet", 0, s)
	return err
}

func (t *timedStore) Sync() error {
	return t.CommitFunc(nil)
}

func (t *timedStore) CommitFunc(metaFn func() []byte) error {
	s := time.Now()
	var err error
	if metaFn == nil {
		err = t.st.Sync()
	} else {
		err = t.st.CommitFunc(metaFn)
	}
	d := time.Since(s)
	t.tr.end("eventstore.commit", "fleet", 0, s)
	t.mu.Lock()
	t.commitNs = append(t.commitNs, float64(d))
	t.mu.Unlock()
	return err
}

func (t *timedStore) CommitMeta() []byte { return t.st.CommitMeta() }

// readReq is one scheduled /v1 read.
type readReq struct {
	at    time.Duration // offset from the phase start
	path  string
	group string // tables, figures, lifecycles or asof
}

// readRes is one read's outcome. Times are offsets from the phase start.
type readRes struct {
	lat, late time.Duration
	code      int
	err       error
}

// daemon is one opened coordinator: store, fleet listener, timeline,
// /v1 server on loopback HTTP, and one sensor-side shipper.
type daemon struct {
	events     []ids.Event
	ref4, ref5 []byte
	cves       []string // CVEs in first-shipped order
	firstBatch map[string]int
	earliest   map[string]time.Time

	fs      *memFS
	store   *eventstore.Store
	tstore  *timedStore // nil when untraced
	ln      *fleet.Listener
	tl      *timeline.Engine
	srv     *serve.Server
	httpSrv *http.Server
	httpLn  net.Listener
	base    string
	ship    *fleet.Shipper
	tr      *tracer

	handlerNs []atomic.Int64 // per read index, traced only
}

// openDaemon does the whole set-up: the seed's Scale-1 event set (direct
// Study.Run with pipeline timelines), the reference Tables 4 and 5 from
// Study.ResultsFromEvents, and the coordinator on a memory-backed FS.
func openDaemon(seed int64, tr *tracer) (*daemon, error) {
	study, err := wayback.NewStudy(wayback.Config{Seed: seed, Scale: 1, PipelineTimelines: true})
	if err != nil {
		return nil, err
	}
	res, err := study.Run()
	if err != nil {
		return nil, err
	}
	ref := study.ResultsFromEvents(res.Events)
	d := &daemon{
		events: res.Events,
		ref4:   []byte(ref.Table4().String()), ref5: []byte(ref.Table5().String()),
		firstBatch: map[string]int{}, earliest: map[string]time.Time{}, tr: tr,
	}
	for i := range d.events {
		ev := &d.events[i]
		if _, ok := d.firstBatch[ev.CVE]; !ok {
			d.firstBatch[ev.CVE] = i / batchEvents
			d.cves = append(d.cves, ev.CVE)
		}
		if e, ok := d.earliest[ev.CVE]; !ok || ev.Time.Before(e) {
			d.earliest[ev.CVE] = ev.Time
		}
	}

	fs := newMemFS()
	d.fs = fs
	if d.store, err = eventstore.Open("store", eventstore.Options{FS: fs}); err != nil {
		return nil, err
	}
	var sink fleet.Sink = d.store
	if tr != nil {
		d.tstore = &timedStore{st: d.store, tr: tr}
		sink = d.tstore
	}
	// The listener must see the same optional interfaces whether or not the
	// store is wrapped, or the traced run measures another commit path.
	if got, want := sinkShape(sink), sinkShape(d.store); got != want {
		d.close()
		return nil, fmt.Errorf("sink wrapper changes the listener path: %s, store has %s", got, want)
	}
	lnl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	if d.ln, err = fleet.Listen(fleet.ListenerConfig{Listener: lnl, Sink: sink, Dir: d.store.Dir(), FS: fs}); err != nil {
		lnl.Close()
		d.close()
		return nil, err
	}
	if d.tl, err = study.OpenTimeline("timeline", d.store, timeline.Config{FS: fs}); err != nil {
		d.close()
		return nil, err
	}
	if d.srv, err = serve.New(serve.Config{Study: study, Store: d.store, Fleet: d.ln, Timeline: d.tl}); err != nil {
		d.close()
		return nil, err
	}
	if d.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + d.httpLn.Addr().String()
	d.httpSrv = &http.Server{Handler: d.handler()}
	go d.httpSrv.Serve(d.httpLn)
	d.ship, err = fleet.StartShipper(fleet.ShipperConfig{
		Addr: d.ln.Addr().String(), SensorID: "perfbench-0", StateDir: "spool", FS: fs,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// handler is the server's handler, wrapped to time each read when traced.
// Reads carry their index in X-Perfbench-Read.
func (d *daemon) handler() http.Handler {
	h := d.srv.Handler()
	if d.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := time.Now()
		h.ServeHTTP(w, r)
		i, err := strconv.Atoi(r.Header.Get("X-Perfbench-Read"))
		d.tr.end("serve", "loadgen", int64(i), s)
		if err == nil && i >= 0 && i < len(d.handlerNs) {
			d.handlerNs[i].Store(int64(time.Since(s)))
		}
	})
}

func (d *daemon) close() {
	if d.ship != nil {
		d.ship.Close()
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	} else if d.httpLn != nil {
		d.httpLn.Close()
	}
	if d.ln != nil {
		d.ln.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
}

// schedule lays out the phase's reads: an open-loop sequence at rate from
// start to end walking readCycle. The k-th as-of read uses instant k mod
// asofInstants. A lifecycle read names a seeded CVE whose first event was
// scheduled safeMargin before it (and, as of an instant, attacked by then);
// without one it reads Table 4 instead.
func (d *daemon) schedule(rng *rand.Rand, instants []time.Time, start, end time.Duration, rate float64, live bool) []readReq {
	n := int(float64(end-start) / float64(time.Second) * rate)
	out := make([]readReq, 0, n)
	for i := 0; i < n; i++ {
		at := start + time.Duration(float64(i)/rate*float64(time.Second))
		path := readCycle[i%len(readCycle)]
		var asof time.Time
		if i%asofEvery == asofEvery-1 {
			asof = instants[(i/asofEvery)%len(instants)]
		}
		if path == "lifecycles/" {
			var ok []string
			for _, cve := range d.cves {
				shipped := time.Duration(float64(d.firstBatch[cve]*batchEvents) / ingestRate * float64(time.Second))
				if live && shipped+safeMargin > at {
					continue
				}
				if !asof.IsZero() && d.earliest[cve].After(asof) {
					continue
				}
				ok = append(ok, cve)
			}
			if len(ok) == 0 {
				path = "tables/4"
			} else {
				path += "CVE-" + ok[rng.Intn(len(ok))]
			}
		}
		group, _, _ := strings.Cut(path, "/")
		if !asof.IsZero() {
			path += "?asof=" + asof.Format("2006-01-02")
			group = "asof"
		}
		out = append(out, readReq{at: at, path: "/v1/" + path, group: group})
	}
	return out
}

// asofPoints draws the ?asof= instants, one uniformly inside each of
// asofInstants equal slices of the study window, at day precision.
func asofPoints(rng *rand.Rand) []time.Time {
	w := datasets.StudyWindow
	slice := w.End.Sub(w.Start) / asofInstants
	out := make([]time.Time, asofInstants)
	for i := range out {
		out[i] = w.Start.Add(time.Duration(i)*slice + time.Duration(rng.Int63n(int64(slice)))).Truncate(24 * time.Hour)
	}
	return out
}

// loadgen issues scheduled reads over at most conns connections: sender k
// sends reads k, k+conns, ... in order, each no earlier than its time.
type loadgen struct {
	client *http.Client
	conns  int
	base   string
	offset int // index of this phase's first read, for X-Perfbench-Read
}

func (g *loadgen) run(t0 time.Time, reqs []readReq) []readRes {
	out := make([]readRes, len(reqs))
	var wg sync.WaitGroup
	for k := 0; k < g.conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(reqs); i += g.conns {
				out[i] = g.do(t0, i, reqs[i])
			}
		}(k)
	}
	wg.Wait()
	return out
}

func (g *loadgen) do(t0 time.Time, i int, rq readReq) readRes {
	due := t0.Add(rq.at)
	time.Sleep(time.Until(due))
	var res readRes
	res.late = time.Since(due)
	req, err := http.NewRequest("GET", g.base+rq.path, nil)
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("X-Perfbench-Read", strconv.Itoa(g.offset+i))
	resp, err := g.client.Do(req)
	if err != nil {
		res.err = err
		res.lat = time.Since(due)
		return res
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	res.lat = time.Since(due)
	res.code = resp.StatusCode
	res.err = err
	return res
}

func (g *loadgen) get(path string) ([]byte, error) {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// daemonRun is the outcome of one measured daemon run.
type daemonRun struct {
	events, batches      int
	ingestLag            []float64 // ms, per batch
	ingestLate           time.Duration
	unacked              int
	live, settled        []readReq
	liveRes, settledRes  []readRes
	queryable            time.Duration
	ingestSpan           time.Duration // first hand-off to queryable
	heapMiB              float64       // max GC-settled live heap at the phase ends
	heapSampled          float64       // peak live heap sampled every 10ms
	cpu                  time.Duration
	checks               [][2]string // (what, failure)
	spoolPeak, queuePeak int
	shipNs               int64
	tickNs, sealNs       int64
	sealedEvents         int64
	metricsText          string
}

// run measures one daemon: the live phase (paced ingest plus reads), the
// queryable barrier, and the settled phase (reads only), then checks the
// final state against the reference.
func (d *daemon) run(seed int64, seconds float64) (*daemonRun, error) {
	out := &daemonRun{events: len(d.events)}
	var batches [][]ids.Event
	for i := 0; i < len(d.events); i += batchEvents {
		batches = append(batches, d.events[i:min(i+batchEvents, len(d.events))])
	}
	out.batches = len(batches)
	due := func(k int) time.Duration {
		return time.Duration(float64(k*batchEvents) / ingestRate * float64(time.Second))
	}
	liveEnd := due(len(batches) - 1)

	rng := rand.New(rand.NewSource(seed*7919 + 3))
	instants := asofPoints(rng)
	out.live = d.schedule(rng, instants, readStart, liveEnd, liveReadRate, true)
	settledFor := max(minSettled, time.Duration(seconds*float64(time.Second))-liveEnd)
	out.settled = d.schedule(rng, instants, 0, settledFor, settledReadRate, false)
	d.handlerNs = make([]atomic.Int64, len(out.live)+len(out.settled))

	conns := max(1, runtime.NumCPU()-1) // the sensor holds one connection
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	gen := &loadgen{client: client, conns: conns, base: d.base}

	hp := &heapPeak{}
	var spoolPeak, queuePeak atomic.Int64
	smp := startSampler(10*time.Millisecond, func() {
		hp.sample()
		if n := int64(d.ship.Metrics().Spooled); n > spoolPeak.Load() {
			spoolPeak.Store(n)
		}
		if n := int64(d.ln.CommitStats().QueueDepth); n > queuePeak.Load() {
			queuePeak.Store(n)
		}
	})
	// stop ends the timeline ticker and the ack poller; both are waited
	// for on every return path.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	defer bg.Wait()
	stopOnce := sync.OnceFunc(func() { close(stop) })
	defer stopOnce()
	defer smp.stop()
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				before := d.tl.Metrics().SealedEvents
				s := time.Now()
				sealed, err := d.tl.Tick()
				ns := int64(time.Since(s))
				d.tr.end("timeline.tick", "", 0, s)
				out.tickNs += ns
				if sealed {
					out.sealNs += ns
					out.sealedEvents += d.tl.Metrics().SealedEvents - before
				}
				if err != nil {
					fmt.Println("# timeline tick:", err)
				}
			}
		}
	}()

	cpu0 := cpuTime()
	t0 := time.Now()
	// Ingest: one shipper hands batches over at the offered rate.
	handed := make([]time.Time, len(batches))
	var ingestErr error
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		for k, b := range batches {
			at := t0.Add(due(k))
			time.Sleep(time.Until(at))
			if late := time.Since(at); late > out.ingestLate {
				out.ingestLate = late
			}
			handed[k] = at
			s := time.Now()
			if err := d.ship.AppendBatch(b); err != nil {
				ingestErr = err
				return
			}
			out.shipNs += int64(time.Since(s))
			d.tr.end("fleet.ship", "", int64(k), s)
		}
	}()
	// Acks: batch k is sequence k+1 of a fresh spool; the cumulative ack
	// marks it committed and visible.
	acked := make([]time.Time, len(batches))
	ackDeadline := t0.Add(liveEnd + 60*time.Second)
	ackDone := make(chan struct{})
	bg.Add(1)
	go func() {
		defer bg.Done()
		defer close(ackDone)
		next := 0
		for next < len(batches) && time.Now().Before(ackDeadline) {
			a := int(d.ship.Metrics().AckedSeq)
			now := time.Now()
			for ; next < a && next < len(batches); next++ {
				acked[next] = now
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	out.liveRes = gen.run(t0, out.live)
	ingestWG.Wait()
	if ingestErr != nil {
		return nil, ingestErr
	}
	// Barrier: poll until /v1/tables/4 is the reference, timed from the
	// last batch's scheduled hand-off.
	lastDue := t0.Add(liveEnd)
	barrierDeadline := time.Now().Add(60 * time.Second)
	for {
		body, err := gen.get("/v1/tables/4")
		if err == nil && bytes.Equal(body, d.ref4) {
			out.queryable = time.Since(lastDue)
			out.ingestSpan = time.Since(t0)
			break
		}
		if time.Now().After(barrierDeadline) {
			out.checks = append(out.checks, [2]string{"queryable barrier", "tables/4 never matched the reference"})
			out.queryable = time.Since(lastDue)
			out.ingestSpan = time.Since(t0)
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-ackDone
	out.heapMiB = d.heapMiB()
	for k := range batches {
		if acked[k].IsZero() {
			out.unacked++
			continue
		}
		lag := acked[k].Sub(handed[k])
		out.ingestLag = append(out.ingestLag, ms(lag))
	}

	gen.offset = len(out.live)
	out.settledRes = gen.run(time.Now(), out.settled)
	out.cpu = cpuTime() - cpu0
	stopOnce()
	smp.stop()
	out.heapSampled = hp.mib()
	out.heapMiB = max(out.heapMiB, d.heapMiB())
	out.spoolPeak, out.queuePeak = int(spoolPeak.Load()), int(queuePeak.Load())

	// Final state against the reference.
	check := func(what, failure string) { out.checks = append(out.checks, [2]string{what, failure}) }
	if n := d.store.Len(); n != len(d.events) {
		check("store length", fmt.Sprintf("%d events, want %d", n, len(d.events)))
	} else {
		check("store length", "")
	}
	if _, _, dups := d.ln.Totals(); dups != 0 {
		check("fleet dup batches", fmt.Sprintf("%d duplicate batches", dups))
	} else {
		check("fleet dup batches", "")
	}
	for _, t := range []struct {
		path string
		want []byte
	}{{"/v1/tables/4", d.ref4}, {"/v1/tables/5", d.ref5}} {
		body, err := gen.get(t.path)
		switch {
		case err != nil:
			check(t.path, err.Error())
		case !bytes.Equal(body, t.want):
			check(t.path, "body differs from Study.ResultsFromEvents")
		default:
			check(t.path, "")
		}
	}
	body, err := gen.get("/metrics")
	if err != nil {
		return nil, err
	}
	out.metricsText = string(body)
	return out, nil
}

// heapMiB is the live heap after a forced GC, less the bytes held by the
// memory filesystem: on a real deployment those bytes are files, not heap.
func (d *daemon) heapMiB() float64 {
	return gcLiveMiB() - float64(d.fs.bytes())/(1<<20)
}

// scrape returns the value of a /metrics gauge, or 0.
func scrape(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// countReads adds a phase's reads to the report's checks and returns the
// latencies of the successful ones in ms.
func countReads(r *report, phase string, reqs []readReq, res []readRes) []float64 {
	var lat []float64
	for i, x := range res {
		fail := ""
		switch {
		case x.err != nil:
			fail = x.err.Error()
		case x.code != http.StatusOK:
			fail = fmt.Sprintf("HTTP %d", x.code)
		}
		r.check(phase+" read "+reqs[i].path, fail)
		if fail == "" {
			lat = append(lat, ms(x.lat))
		}
	}
	return lat
}

// setUp times setupRepeats full set-ups, keeps the last one open and
// returns it with the median set-up time.
func setUp(seed int64, tr *tracer, repeats int) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		s := time.Now()
		var err error
		if d, err = openDaemon(seed, tr); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(s).Seconds())
	}
	return d, median(times), nil
}

func daemonUntraced(seed int64, seconds float64, r *report) error {
	d, setup, err := setUp(seed, nil, setupRepeats)
	if err != nil {
		return err
	}
	defer d.close()
	run, err := d.run(seed, seconds)
	if err != nil {
		return err
	}
	reportDaemon(r, run)
	r.metric("setup_s", setup, "s", setupRepeats, "event set + reference tables + store, listener, timeline, server open; median")
	r.metric("events_per_s", float64(run.events)/run.ingestSpan.Seconds(), "events/s", run.events,
		"events / (first scheduled hand-off to queryable); offered "+fmt.Sprint(ingestRate))
	r.metric("heap_peak_mib", run.heapMiB, "MiB", 2, "live heap less memfs files after a forced GC at the end of each phase; the larger")
	r.metric("cpu_us_per_event", float64(run.cpu)/float64(time.Microsecond)/float64(run.events), "us", run.events,
		"process CPU over live + barrier + settled / events")
	r.info("heap_sampled_peak_mib", run.heapSampled, "MiB", 1, "peak /gc/heap/live:bytes sampled every 10ms; GC-timing dependent")
	return nil
}

// reportDaemon records the run's checks and prints its latency figures.
func reportDaemon(r *report, run *daemonRun) {
	for _, c := range run.checks {
		r.check(c[0], c[1])
	}
	for k := 0; k < run.batches; k++ {
		fail := ""
		if k >= run.batches-run.unacked {
			fail = "not acked"
		}
		r.check("batch", fail)
	}
	live := countReads(r, "live", run.live, run.liveRes)
	groups := map[string][]float64{}
	for i, x := range run.liveRes {
		groups[run.live[i].group] = append(groups[run.live[i].group], ms(x.lat))
	}
	for w := 0; w < 60; w += 5 {
		var xs []float64
		for i, x := range run.liveRes {
			if at := run.live[i].at; at >= time.Duration(w)*time.Second && at < time.Duration(w+5)*time.Second {
				xs = append(xs, ms(x.lat))
			}
		}
		if len(xs) > 0 {
			r.info(fmt.Sprintf("live_read_max_ms.%02ds", w), quantile(xs, 1), "ms", len(xs), fmt.Sprintf("p50 %.3g", quantile(xs, 0.5)))
		}
	}
	for _, g := range []string{"tables", "figures", "lifecycles", "asof"} {
		xs := groups[g]
		r.info("live_read_p99_ms."+g, quantile(xs, 0.99), "ms", len(xs), fmt.Sprintf("p50 %.3g", quantile(xs, 0.5)))
	}
	settled := countReads(r, "settled", run.settled, run.settledRes)
	r.info("queryable_s", run.queryable.Seconds(), "s", 1, "last scheduled hand-off to /v1/tables/4 == reference")
	lag := append([]float64(nil), run.ingestLag...)
	r.info("ingest_lag_p50_ms", quantile(lag, 0.5), "ms", len(lag), "scheduled hand-off to ack")
	r.info("ingest_lag_p99_ms", quantile(lag, 0.99), "ms", len(lag), "")
	r.info("live_read_p50_ms", quantile(append([]float64(nil), live...), 0.5), "ms", len(live), "from scheduled send")
	r.info("live_read_p95_ms", quantile(append([]float64(nil), live...), 0.95), "ms", len(live), "highest percentile with >= 10 samples beyond it")
	r.info("live_read_p99_ms", quantile(append([]float64(nil), live...), 0.99), "ms", len(live), fmt.Sprintf("%d samples beyond", len(live)/100))
	r.info("read_p50_ms", quantile(append([]float64(nil), settled...), 0.5), "ms", len(settled), "settled phase, after the barrier")
	r.info("read_p99_ms", quantile(append([]float64(nil), settled...), 0.99), "ms", len(settled), "")
	var late time.Duration = run.ingestLate
	for _, x := range append(append([]readRes(nil), run.liveRes...), run.settledRes...) {
		late = max(late, x.late)
	}
	r.info("loadgen.late_ms_max", ms(late), "ms", len(run.liveRes)+len(run.settledRes)+run.batches, "ingest and reads")
	r.info("offered.ingest_events_per_s", ingestRate, "events/s", run.batches, fmt.Sprintf("%d-event batches", batchEvents))
	r.info("offered.live_reads_per_s", liveReadRate, "1/s", len(run.live), "")
	r.info("offered.settled_reads_per_s", settledReadRate, "1/s", len(run.settled), "")
	fmt.Println("# filesystem: memfs, in-process memory (stores, spool, watermark journal, timeline)")
}

func daemonTraced(seed int64, seconds float64, r *report) error {
	// The untraced run gives the CPU time the traced run is compared with.
	d, _, err := setUp(seed, nil, 1)
	if err != nil {
		return err
	}
	base, err := d.run(seed, seconds)
	d.close()
	if err != nil {
		return err
	}
	tr := newTracer()
	d, _, err = setUp(seed, tr, 1)
	if err != nil {
		return err
	}
	defer d.close()
	run, err := d.run(seed, seconds)
	if err != nil {
		return err
	}
	reportDaemon(r, run)

	zeroCaptureLayers(r)
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	sm := d.ship.Metrics()
	cs := d.ln.CommitStats()
	_, _, dups := d.ln.Totals()
	r.metric("fleet.ship_ns_per_batch", per(float64(run.shipNs), run.batches), "ns", run.batches, "Shipper.AppendBatch")
	r.metric("fleet.spool_peak", float64(run.spoolPeak), "count", 1, "unacked batches, sampled every 10ms")
	r.metric("fleet.reconnects", float64(sm.Reconnects), "count", 1, "")
	r.metric("fleet.commits", float64(cs.Commits), "count", 1, "")
	r.metric("fleet.batches_per_commit", per(float64(cs.CoalescedBatches), int(cs.Commits)), "ratio", int(cs.Commits), "")
	r.metric("fleet.commit_queue_peak", float64(run.queuePeak), "count", 1, "sampled every 10ms")
	r.metric("fleet.dup_batches", float64(dups), "count", 1, "must be 0")
	ts := d.tstore
	ts.mu.Lock()
	commits := append([]float64(nil), ts.commitNs...)
	ts.mu.Unlock()
	r.metric("eventstore.append_ns_per_event", per(float64(ts.appendNs.Load()), int(ts.appendEvents.Load())), "ns", int(ts.appendEvents.Load()), "")
	r.metric("eventstore.commit_ns_p50", quantile(commits, 0.5), "ns", len(commits), "")
	r.metric("eventstore.commit_ns_p99", quantile(commits, 0.99), "ns", len(commits), "")
	r.metric("eventstore.bytes_per_event", per(float64(d.store.SizeBytes()), d.store.Len()), "B/event", d.store.Len(), "")
	tm := d.tl.Metrics()
	r.metric("timeline.tick_busy_ns", float64(run.tickNs), "ns", 1, "total time in Tick")
	r.metric("timeline.seal_ns_per_event", per(float64(run.sealNs), int(run.sealedEvents)), "ns", int(run.sealedEvents), "")
	r.metric("timeline.segments", float64(tm.Segments), "count", 1, "")
	r.metric("timeline.checkpoints", float64(tm.Checkpoints), "count", 1, "")
	reads := len(run.live) + len(run.settled)
	folds := scrape(run.metricsText, "waybackd_results_folds_total")
	r.metric("results.folds", folds, "count", 1, "scraped from /metrics")
	r.metric("results.folded_events", scrape(run.metricsText, "waybackd_results_folded_events_total"), "count", 1, "")
	r.metric("results.rebuilds", scrape(run.metricsText, "waybackd_results_rebuilds_total"), "count", 1, "")
	r.metric("results.folds_per_read", per(folds, reads), "ratio", reads, "")
	hits, misses := d.srv.CacheStats()
	r.metric("serve.cache_hit_ratio", per(float64(hits), int(hits+misses)), "ratio", int(hits+misses), "")
	byGroup := map[string][]float64{}
	var wait []float64
	all := append(append([]readReq(nil), run.live...), run.settled...)
	res := append(append([]readRes(nil), run.liveRes...), run.settledRes...)
	for i, rq := range all {
		h := float64(d.handlerNs[i].Load())
		if h == 0 || res[i].code != http.StatusOK {
			continue
		}
		byGroup[rq.group] = append(byGroup[rq.group], h)
		wait = append(wait, ms(res[i].lat)-h/1e6)
	}
	for _, g := range []string{"tables", "figures", "lifecycles", "asof"} {
		xs := byGroup[g]
		r.metric("serve.handler_ns_p50."+g, quantile(xs, 0.5), "ns", len(xs), "")
		r.metric("serve.handler_ns_p99."+g, quantile(xs, 0.99), "ns", len(xs), "")
	}
	r.metric("serve.queue_wait_ms_p99", quantile(wait, 0.99), "ms", len(wait), "client latency - handler time")
	late := run.ingestLate
	for _, x := range res {
		late = max(late, x.late)
	}
	r.metric("loadgen.late_ms_max", ms(late), "ms", len(res)+run.batches, "")
	r.metric("trace.overhead_frac", float64(run.cpu)/float64(base.cpu)-1, "ratio", 1,
		fmt.Sprintf("process CPU over the timed phases, traced %.3fs / untraced %.3fs - 1", run.cpu.Seconds(), base.cpu.Seconds()))
	path, err := tr.write(".bench_build/perfbench-trace", fmt.Sprintf("daemon-seed%d.json", seed))
	if err != nil {
		return err
	}
	fmt.Printf("# spans written to %s (%d kept)\n", path, len(tr.spans))
	return nil
}

// zeroCaptureLayers reports the capture-only layers as 0 on the daemon.
func zeroCaptureLayers(r *report) {
	for _, n := range perLayer {
		for _, p := range []string{"scanner.", "telescope.", "netsim.", "packet.", "tcpasm.", "ids.", "emit."} {
			if strings.HasPrefix(n, p) {
				r.metric(n, 0, unitOf(n), 0, "not exercised")
			}
		}
	}
}
