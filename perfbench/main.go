// Command perfbench is the repository's benchmark: it runs one workload from
// a seed, checks the program's outputs, and prints every metric by name with
// its unit and sample count. The last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set from a
// traced run. See README.md for the design.
//
//	bash perfbench/run.sh --workload capture-serial --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []string{"setup_s", "events_per_s", "heap_peak_mib", "cpu_us_per_event"}

// perLayer are the metrics of a traced run, reported on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []string{
	"scanner.blueprints", "scanner.self_ns_per_blueprint",
	"telescope.packets", "telescope.bytes", "telescope.self_ns_per_packet",
	"telescope.lag_peak", "telescope.segment_skew",
	"netsim.self_ns_per_frame", "netsim.dropped", "netsim.duplicated",
	"netsim.reordered", "netsim.aborted",
	"packet.decode_ns_per_packet", "packet.decode_errors",
	"tcpasm.feed_ns_per_packet", "tcpasm.sessions", "tcpasm.open_conns_peak",
	"tcpasm.ambiguous_sessions",
	"ids.extract_ns_per_session", "ids.extract_allocs_per_session",
	"ids.match_ns_per_session", "ids.matched_ratio",
	"ids.rules_evaluated_per_session", "ids.rule_hit_ratio",
	"emit.ns_per_event",
	"fleet.ship_ns_per_batch", "fleet.spool_peak", "fleet.reconnects",
	"fleet.commits", "fleet.batches_per_commit", "fleet.commit_queue_peak",
	"fleet.dup_batches",
	"eventstore.append_ns_per_event", "eventstore.commit_ns_p50",
	"eventstore.commit_ns_p99", "eventstore.bytes_per_event",
	"timeline.tick_busy_ns", "timeline.seal_ns_per_event", "timeline.segments",
	"timeline.checkpoints",
	"results.folds", "results.folded_events", "results.rebuilds",
	"results.folds_per_read",
	"serve.cache_hit_ratio",
	"serve.handler_ns_p50.tables", "serve.handler_ns_p99.tables",
	"serve.handler_ns_p50.figures", "serve.handler_ns_p99.figures",
	"serve.handler_ns_p50.lifecycles", "serve.handler_ns_p99.lifecycles",
	"serve.handler_ns_p50.asof", "serve.handler_ns_p99.asof",
	"serve.queue_wait_ms_p99",
	"loadgen.late_ms_max", "trace.overhead_frac",
}

// units fixes each metric's unit, so every workload reports it alike.
var units = map[string]string{
	"setup_s": "s", "events_per_s": "events/s", "heap_peak_mib": "MiB", "cpu_us_per_event": "us",
	"emit.ns_per_event": "ns",
}

// unitOf returns a metric's unit, deriving per-layer units from the name.
func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"),
		strings.HasSuffix(name, "_skew"), strings.HasSuffix(name, "_per_read"),
		strings.HasSuffix(name, "_per_commit"):
		return "ratio"
	case name == "telescope.bytes":
		return "B"
	case name == "eventstore.bytes_per_event":
		return "B/event"
	case strings.HasSuffix(name, "_allocs_per_session"):
		return "allocs"
	case strings.HasSuffix(name, "rules_evaluated_per_session"):
		return "rules"
	}
	return "count"
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// report collects a run's checks and metrics and prints them as they land.
type report struct {
	res     result
	badUnit []string
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metricVal{}}}
}

// metric records a metric that belongs in the JSON result and prints it.
func (r *report) metric(name string, v float64, unit string, samples int, note string) {
	if unit != unitOf(name) {
		r.badUnit = append(r.badUnit, name+" in "+unit)
	}
	r.res.Metrics[name] = metricVal{Value: v, Unit: unit}
	r.print("metric", name, v, unit, samples, note)
}

// info prints a measured figure that is not part of the JSON result.
func (r *report) info(name string, v float64, unit string, samples int, note string) {
	r.print("info", name, v, unit, samples, note)
}

func (r *report) print(kind, name string, v float64, unit string, samples int, note string) {
	line := fmt.Sprintf("%-6s %-34s %16.6g %-8s n=%d", kind, name, v, unit, samples)
	if note != "" {
		line += "  " + note
	}
	fmt.Println(line)
}

// check counts one attempted operation; a non-empty failure fails it.
func (r *report) check(what, failure string) {
	r.res.Attempted++
	if failure != "" {
		r.res.Failed++
		fmt.Printf("FAIL   %s: %s\n", what, failure)
	}
}

// finish verifies the metric set and prints the JSON result line.
func (r *report) finish(want []string) error {
	var missing, extra []string
	for _, n := range want {
		if _, ok := r.res.Metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range r.res.Metrics {
		if !slices.Contains(want, n) {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra)+len(r.badUnit) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v, wrong unit %v", missing, extra, r.badUnit)
	}
	if r.res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	r.res.Correct = r.res.Failed == 0
	fmt.Printf("info   %-34s %16.6g %-8s n=%d\n", "error_rate",
		float64(r.res.Failed)/float64(r.res.Attempted), "ratio", r.res.Attempted)
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	workload := flag.String("workload", "", "capture-serial | capture-impaired | daemon")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d\n",
		workload, seed, seconds, traced, runtime.Version(), runtime.NumCPU())
	r := newReport()
	var err error
	switch workload {
	case "capture-serial", "capture-impaired":
		serial := workload == "capture-serial"
		if serial {
			// The single-threaded baseline: one P for the whole process.
			runtime.GOMAXPROCS(1)
		}
		if traced {
			err = captureTraced(serial, seed, r)
		} else {
			err = captureUntraced(serial, seed, seconds, r)
		}
	case "daemon":
		if traced {
			err = daemonTraced(seed, seconds, r)
		} else {
			err = daemonUntraced(seed, seconds, r)
		}
	default:
		return fmt.Errorf("unknown --workload %q (want capture-serial, capture-impaired or daemon)", workload)
	}
	if err != nil {
		return err
	}
	if traced {
		return r.finish(perLayer)
	}
	return r.finish(endToEnd)
}
