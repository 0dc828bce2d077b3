package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/eventstore"
	"repro/internal/ids"
)

// quantile returns the q-quantile of xs by nearest rank. xs is sorted in
// place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	return quantile(ys, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sampler calls fn every interval on its own goroutine until stop returns.
// The benchmark uses it for gauges only observable by polling: live heap,
// generator lag, spool depth, commit queue depth.
type sampler struct {
	stopCh chan struct{}
	done   chan struct{}
	once   sync.Once
}

func startSampler(every time.Duration, fn func()) *sampler {
	s := &sampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			fn()
			select {
			case <-s.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it. Safe to call more than once.
func (s *sampler) stop() {
	s.once.Do(func() { close(s.stopCh) })
	<-s.done
}

// heapPeak tracks the peak live heap as the runtime reports it after each GC
// cycle (/gc/heap/live:bytes). Callers sample it from a sampler.
type heapPeak struct {
	mu   sync.Mutex
	s    []metrics.Sample
	peak uint64
}

func (h *heapPeak) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.s == nil {
		h.s = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		if v := h.s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
}

// mib returns the peak in MiB.
func (h *heapPeak) mib() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// gcLiveMiB forces a collection and returns the live heap it leaves, in
// MiB: the memory the process retains at this point, free of GC timing.
func gcLiveMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// digest is an order-independent fingerprint of an event multiset: the
// count plus the wrapping sum of a mixed FNV-1a hash of each event's store
// encoding. Streamed scans deliver events in completion order, so only an
// order-independent digest can compare them with a serial reference.
type digest struct {
	n   int
	sum uint64
	buf []byte
}

func (d *digest) add(evs []ids.Event) {
	for i := range evs {
		d.buf = eventstore.EncodeEvent(d.buf[:0], &evs[i])
		h := fnv.New64a()
		h.Write(d.buf)
		x := h.Sum64()
		// splitmix64 finalizer, so sums of similar hashes do not cancel.
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		d.sum += x
		d.n++
	}
}

func (d *digest) String() string { return fmt.Sprintf("%d:%016x", d.n, d.sum) }

// span is one timed call across a layer boundary. Spans of one unit of work
// (a packet, a session, a batch, a request) share Unit; Parent names the
// layer whose span encloses this one ("" at the root).
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotal accumulates one layer's calls and inclusive time.
type layerTotal struct {
	calls int64
	ns    int64
}

// tracer records spans at the layer boundaries the benchmark calls across.
// Totals per layer cover every span; the spans themselves are kept in
// memory up to a cap and written out when the run ends. A nil *tracer
// records nothing, so the same composition runs traced and untraced.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	totals map[string]*layerTotal
	spans  []span
	limit  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: map[string]*layerTotal{}, limit: 200000}
}

// now returns the current time, or the zero time on a nil tracer so that
// untraced runs make no clock reads.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a span of layer, enclosed by a span of parent, that started
// at start and ends now.
func (t *tracer) end(layer, parent string, unit int64, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	d := end.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := t.totals[layer]
	if lt == nil {
		lt = &layerTotal{}
		t.totals[layer] = lt
	}
	lt.calls++
	lt.ns += int64(d)
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{
			Layer: layer, Parent: parent, Unit: unit,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
}

// total returns the layer's call count and inclusive nanoseconds.
func (t *tracer) total(layer string) (int64, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := t.totals[layer]
	if lt == nil {
		return 0, 0
	}
	return lt.calls, float64(lt.ns)
}

// write saves the kept spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
