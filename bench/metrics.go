package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"

	"asyncfd/internal/stats"
)

// class says where a metric is reported.
type class uint8

const (
	// endToEnd metrics exist on every workload and are measured with
	// tracing off; they are BENCHMARK.json's end_to_end list.
	endToEnd class = iota
	// pipeline metrics are what a user of one pipeline sees (sweep wall
	// time, heartbeat latency, ...). They do not exist on the other
	// pipeline's workloads, so BENCHMARK.json lists them under per_layer;
	// -repeat holds their spread to the bound.
	pipeline
	// perLayer metrics come from the traced run.
	perLayer
)

// metricDef is one row of the metric catalog: the contract later changes
// are judged with.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	class  class
	bound  float64 // share of the median a regression may cost; 0 for perLayer
}

// catalog lists every metric the benchmark prints, in print order.
// BENCHMARK.json repeats the names, units, directions and end-to-end bounds;
// TestCatalogMatchesBenchmarkJSON holds the two together.
var catalog = []metricDef{
	{"setup_s", "s", "lower", endToEnd, 0.25},
	{"work_wall_s", "s", "lower", endToEnd, 0.25},
	{"peak_rss_mb", "MB", "lower", endToEnd, 0.20},

	{"hb_latency_p50_ms", "ms", "lower", pipeline, 0.25},
	{"hb_latency_p99_ms", "ms", "lower", pipeline, 0}, // reported only: one stall of the box moves it
	{"detect_p50_ms", "ms", "lower", pipeline, 0.25},
	{"verdict_s", "s", "lower", pipeline, 0}, // reported only: Mistakes is memory-bound, ±30 % from run to run
	{"failed_share", "ratio", "lower", pipeline, 0},

	// CPU time of the work work_wall_s times: reported by both kinds of run,
	// beside the wall time, held to no bound (on this box it moves with it).
	{"work_cpu_s", "s", "lower", perLayer, 0},
	{"scenario.parse_ms", "ms", "lower", perLayer, 0},
	{"topology.build_ms", "ms", "lower", perLayer, 0},
	{"exp.build_ms", "ms", "lower", perLayer, 0},
	{"exp.forks", "count", "lower", perLayer, 0},
	{"exp.snapshot_ms", "ms", "lower", perLayer, 0},
	{"exp.restore_ms", "ms", "lower", perLayer, 0},
	{"des.events", "count", "lower", perLayer, 0},
	{"des.dispatch_self_s", "s", "lower", perLayer, 0},
	{"des.ns_per_event", "ns", "lower", perLayer, 0},
	{"des.allocs_per_event", "count", "lower", perLayer, 0},
	{"des.pending_max", "count", "lower", perLayer, 0},
	{"netsim.sent", "count", "lower", perLayer, 0},
	{"netsim.delivered", "count", "higher", perLayer, 0},
	{"netsim.dropped", "count", "lower", perLayer, 0},
	{"netsim.fanout_avg", "count", "lower", perLayer, 0},
	{"netsim.admit_self_s", "s", "lower", perLayer, 0},
	{"netsim.ns_per_send", "ns", "lower", perLayer, 0},
	{"netsim.delay_draw_s", "s", "lower", perLayer, 0},
	{"core.steps", "count", "lower", perLayer, 0},
	{"core.step_self_s", "s", "lower", perLayer, 0},
	{"core.ns_per_step", "ns", "lower", perLayer, 0},
	{"heartbeat.steps", "count", "lower", perLayer, 0},
	{"heartbeat.step_self_s", "s", "lower", perLayer, 0},
	{"heartbeat.ns_per_step", "ns", "lower", perLayer, 0},
	{"phiaccrual.steps", "count", "lower", perLayer, 0},
	{"phiaccrual.step_self_s", "s", "lower", perLayer, 0},
	{"phiaccrual.ns_per_step", "ns", "lower", perLayer, 0},
	{"chen.steps", "count", "lower", perLayer, 0},
	{"chen.step_self_s", "s", "lower", perLayer, 0},
	{"chen.ns_per_step", "ns", "lower", perLayer, 0},
	{"trace.events", "count", "lower", perLayer, 0},
	{"trace.append_self_s", "s", "lower", perLayer, 0},
	{"trace.ns_per_append", "ns", "lower", perLayer, 0},
	{"qos.judge_s", "s", "lower", perLayer, 0},
	{"qos.ns_per_event", "ns", "lower", perLayer, 0},

	{"gen.offered_hbps", "hb/s", "higher", perLayer, 0},
	{"gen.late_p99_ms", "ms", "lower", perLayer, 0},
	{"gen.void_steps", "count", "lower", perLayer, 0},
	{"wire.encode_ns", "ns", "lower", perLayer, 0},
	{"wire.decode_ns", "ns", "lower", perLayer, 0},
	{"wire.decode_allocs", "count", "lower", perLayer, 0},
	{"wire.bytes_per_msg", "B", "lower", perLayer, 0},
	{"tcpnet.dial_ms", "ms", "lower", perLayer, 0},
	{"tcpnet.send_call_ns_p50", "ns", "lower", perLayer, 0},
	{"tcpnet.send_call_ns_p99", "ns", "lower", perLayer, 0},
	{"tcpnet.transit_ms_p50", "ms", "lower", perLayer, 0},
	{"tcpnet.transit_ms_p99", "ms", "lower", perLayer, 0},
	{"tcpnet.coalesce", "count", "higher", perLayer, 0},
	{"tcpnet.writes_per_s", "1/s", "lower", perLayer, 0},
	{"tcpnet.frames_dropped", "count", "lower", perLayer, 0},
	{"liveshard.start_ms", "ms", "lower", perLayer, 0},
	{"liveshard.max_ok_rate_hbps", "hb/s", "higher", perLayer, 0},
	{"liveshard.observe_call_ns_p50", "ns", "lower", perLayer, 0},
	{"liveshard.observe_call_ns_p99", "ns", "lower", perLayer, 0},
	{"liveshard.queue_wait_ms_p50", "ms", "lower", perLayer, 0},
	{"liveshard.queue_wait_ms_p99", "ms", "lower", perLayer, 0},
	{"liveshard.queue_len_max", "count", "lower", perLayer, 0},
	{"liveshard.dropped_oldest", "count", "lower", perLayer, 0},
	{"liveshard.dropped_newest", "count", "lower", perLayer, 0},
	{"liveshard.useful_ratio", "ratio", "higher", perLayer, 0},
	{"liveshard.scans_per_s", "1/s", "higher", perLayer, 0},
	{"liveshard.suspected_calls_per_s", "1/s", "lower", perLayer, 0},
	{"liveshard.scan_busy_share", "ratio", "lower", perLayer, 0},
	{"heartbeat.observe_ns", "ns", "lower", perLayer, 0},
	{"heartbeat.suspected_ns", "ns", "lower", perLayer, 0},
	{"phiaccrual.observe_ns", "ns", "lower", perLayer, 0},
	{"phiaccrual.suspected_ns", "ns", "lower", perLayer, 0},
	{"trace.live_events", "count", "lower", perLayer, 0},
	{"bench.trace_overhead", "ratio", "lower", perLayer, 0},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	seed      int64
	traced    bool
	values    map[string]float64 // metric name → value; absent = does not apply
	notes     []string           // free-form lines: digest, ladder rows, shares
	problems  []string           // failed output checks; non-empty = incorrect
	attempted int
	failed    int
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{workload: workload, seed: seed, traced: traced, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) {
	if _, ok := lookupMetric(name); !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.values[name] = v
}

func (r *result) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *result) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// print writes every metric the run measured by name with its unit, the
// notes and check failures, and as the last line the JSON object the
// benchmark driver reads: the end-to-end metrics of an untraced run, the
// per-layer list of a traced one (metrics that do not apply read 0).
func (r *result) print(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  trace %v\n", r.workload, r.seed, r.traced)
	section := func(title string, c class) {
		first := true
		for _, m := range catalog {
			v, ok := r.values[m.name]
			if m.class != c || !ok {
				continue
			}
			if first {
				fmt.Fprintf(&b, "%s\n", title)
				first = false
			}
			fmt.Fprintf(&b, "  %-34s %s %s\n", m.name, formatValue(v), m.unit)
		}
	}
	section("end-to-end", endToEnd)
	section("end-to-end, this pipeline only", pipeline)
	section("per-layer", perLayer)
	for _, n := range r.notes {
		fmt.Fprintf(&b, "%s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "CHECK FAILED: %s\n", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range catalog {
		if (m.class == endToEnd) == r.traced {
			continue
		}
		out.Metrics[m.name] = jm{r.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// quantile returns the q-quantile of sorted (ascending) by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // q·n is a whole number more often than floats admit
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest of the percentiles 99.9, 99 and 90 that has
// at least ten samples beyond it, and that percentile's value; q is 0 when
// there are too few samples for any of them.
func tailQuantile(sorted []int64) (q float64, v int64) {
	for _, q := range []float64{0.999, 0.99, 0.90} {
		if float64(len(sorted))*(1-q) >= 10-1e-9 {
			return q, quantile(sorted, q)
		}
	}
	return 0, 0
}

// median is the middle of v (the mean of the middle two).
func median(v []float64) float64 { return stats.Percentile(v, 0.5) }

// cpuSeconds is the CPU time, user and system, the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
