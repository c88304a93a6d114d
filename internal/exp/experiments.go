package exp

import (
	"fmt"
	"strconv"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/core/tagset"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/qos"
	"asyncfd/internal/stats"
	"asyncfd/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seed is the base random seed (default 1). Runs are deterministic in
	// the seed.
	Seed int64
	// Quick shrinks sweeps and horizons for tests and benches.
	Quick bool
	// Parallel sizes the worker pool experiment cells run on: 0 or 1 =
	// serial, n > 1 = that many workers, negative = one worker per CPU
	// (runtime.GOMAXPROCS). Tables are byte-identical whatever the value.
	Parallel int
	// Repeat overrides the per-cell seed-family size R: every replicated
	// cell runs Repeat seeds (base seed plus a per-replicate stride) and
	// the table aggregates across the family. 0 keeps the historical
	// default (1 in Quick mode, 3 otherwise). Seed-family replication is
	// what turns single-run point estimates into the confidence intervals
	// of the asyncfd-bench/v2 rows; see docs/BENCHMARKS.md.
	Repeat int
	// Stats, when non-nil, accumulates kernel throughput counters across
	// every simulation the run executes.
	Stats *EngineStats
	// Samples, when non-nil, collects per-cell per-replicate metric
	// observations (detection times, mistake rates, …) that aggregate
	// into the distribution rows of the asyncfd-bench/v2 schema.
	// Collection is deterministic at any Parallel value: the cell grid
	// records samples in cell and replicate order once its jobs have
	// finished, never from concurrently executing jobs.
	Samples *stats.Collector

	// serial, which only this package's differential tests set, replaces
	// warm-forking with the serial comparator that re-simulates each
	// replicate's warmup. Tables and v2 rows are byte-identical either way.
	serial bool
	// gate, when non-nil, is the run-wide concurrency bound shared by every
	// runJobs call (installed by RunResults so experiment-level and
	// cell-level fan-out together never exceed workers() live simulations).
	gate chan struct{}
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) runs() int {
	if o.Repeat > 0 {
		return o.Repeat
	}
	if o.Quick {
		return 1
	}
	return 3
}

// defaultDelay is the nominal asynchronous network: ~1ms one-hop average
// with an exponential tail, mirroring the paper family's δ = 1ms setup.
func defaultDelay() netsim.DelayModel {
	return netsim.Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 100 * time.Millisecond}
}

// boundedF is the default crash bound of the n-sweeps: ⌊(n−1)/3⌋, at
// least 1.
func boundedF(n int) int {
	f := (n - 1) / 3
	if f < 1 {
		f = 1
	}
	return f
}

// crashDetection measures how every other member detected the crash of one
// process.
func crashDetection(judge *qos.Judge, members ident.Set, truth *qos.GroundTruth, crash ident.ID) qos.DetectionStats {
	observers := members.Clone()
	observers.Remove(crash)
	return judge.DetectionTimes(truth, crash, observers)
}

// crashCell is the family cell the detection sweeps (E1/L1/E8) share: n
// processes under the nominal delay, process n−1 crashing at t=10.4s (mid
// heartbeat period) after the 10s fork horizon, run to 30s. observe picks
// what the table keeps of the survivors' detection statistics.
func crashCell(opts Options, kind Kind, n int, observe func(qos.DetectionStats) obs) cell {
	crash := ident.ID(n - 1)
	cfg := ClusterConfig{
		Kind: kind, N: n, F: boundedF(n),
		Seed:  opts.seed(),
		Delay: defaultDelay(),
	}
	return cell{
		key: fmt.Sprintf("n=%d/%s", n, kind),
		fam: &family{
			warm:    10 * time.Second,
			horizon: 30 * time.Second,
			build:   faulted(cfg, faults.Schedule{}.CrashAt(crash, 10400*time.Millisecond)),
			measure: func(c *Cluster, truth *qos.GroundTruth) obs {
				return observe(crashDetection(qos.JudgeFrom(c.Log), c.Members, truth, crash))
			},
		},
	}
}

// detectionColumns is the column set of the detection-time-vs-n sweeps.
var detectionColumns = []string{"n", "f",
	"async avg", "async max",
	"hb avg", "hb max",
	"phi avg", "phi max",
	"chen avg", "chen max"}

// detectionVsNTable fills t with the detection-time-vs-n sweep shared by
// E1 and its large-n variant L1: for every n, one process crashes
// mid-heartbeat-period and every detector kind's R-seed family measures
// detection stats.
func detectionVsNTable(opts Options, t *Table, ns []int) (*Table, error) {
	var rows []row
	for _, n := range ns {
		r := row{label: []string{strconv.Itoa(n), strconv.Itoa(boundedF(n))}}
		for _, kind := range AllKinds() {
			r.cells = append(r.cells, crashCell(opts, kind, n, func(s qos.DetectionStats) obs {
				return obs{}.detection("det", s)
			}))
		}
		rows = append(rows, r)
	}
	return runTable(opts, t, rows, func(s series) []string { return s.detection("det") })
}

// E1DetectionVsN reproduces the headline comparison: failure detection time
// versus system size for the time-free detector and the three timer-based
// baselines. Expected shape: the time-free detector detects in roughly one
// query period (Δ + δ) independent of n, while the fixed-timeout heartbeat
// sits between Θ−Δ and Θ and the adaptive baselines near Δ + margin.
func E1DetectionVsN(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "failure detection time vs system size n (avg/max over observers)",
		Note:    "crash of one process at t=10.4s (mid heartbeat period); Δ=1s, Θ=2s; reconstructed experiment",
		Columns: detectionColumns,
	}
	ns := []int{4, 8, 16, 32, 64}
	if opts.Quick {
		ns = []int{4, 8}
	}
	return detectionVsNTable(opts, t, ns)
}

// crashQoSRow is the row E2 and A2 share: the last process of cfg's cluster
// crashes at crashAt, and one trace pass per replicate measures detection
// time, mistake rate λM and query accuracy PA. crashQoSColumns renders it.
func crashQoSRow(label []string, key string, cfg ClusterConfig, warm, crashAt, horizon time.Duration) row {
	crash := ident.ID(cfg.N - 1)
	return row{label: label, cells: []cell{{
		key: key,
		fam: &family{
			warm:    warm,
			horizon: horizon,
			build:   faulted(cfg, faults.Schedule{}.CrashAt(crash, crashAt)),
			measure: func(c *Cluster, truth *qos.GroundTruth) obs {
				judge := qos.JudgeFrom(c.Log)
				return obs{}.detection("det", crashDetection(judge, c.Members, truth, crash)).
					add("mistake_rate", judge.Mistakes(truth, c.Members, horizon).Rate).
					add("query_accuracy", judge.QueryAccuracy(truth, c.Members, horizon))
			},
		},
	}}}
}

func crashQoSColumns(s series) []string {
	return append(s.detection("det"),
		famCell("%.4f", "", s["mistake_rate"]), famCell("%.3f", "", s["query_accuracy"]))
}

// E2DetectionVsF sweeps the crash bound f for the time-free detector with no
// extra collection window: a larger f means a smaller quorum n−f, so rounds
// terminate earlier — detection gets faster but the f slowest responders of
// each round are falsely suspected more often. The experiment exposes the
// latency/accuracy trade-off built into the quorum size.
func E2DetectionVsF(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "time-free detector: detection time and accuracy vs f (quorum n−f)",
		Note:    "n=16, window=0 (pure protocol), crash at t=10s; reconstructed experiment",
		Columns: []string{"f", "quorum", "det avg", "det max", "mistakes/pair/s", "PA"},
	}
	n := 16
	fs := []int{1, 3, 5, 7}
	if opts.Quick {
		n = 8
		fs = []int{1, 3}
	}
	var rows []row
	for _, f := range fs {
		cfg := ClusterConfig{
			Kind: KindAsync, N: n, F: f,
			Seed:     opts.seed(),
			Delay:    defaultDelay(),
			Window:   time.Nanosecond, // effectively zero, explicit to skip default
			Interval: time.Second,
		}
		rows = append(rows, crashQoSRow([]string{strconv.Itoa(f), strconv.Itoa(n - f)}, fmt.Sprintf("f=%d", f),
			cfg, 9*time.Second, 10*time.Second, 30*time.Second))
	}
	return runTable(opts, t, rows, crashQoSColumns)
}

// secondsLabel is the row label (and unsampled observation name) of one
// point of a per-second series.
func secondsLabel(at time.Duration) string { return fmt.Sprintf("%ds", int(at/time.Second)) }

// falseSuspicions records the cluster-wide count of false suspicions at each
// time as an unsampled observation under the time's row label, and returns
// the series' peak and total for the caller's sampled summaries.
func falseSuspicions(j *qos.Judge, truth *qos.GroundTruth, times []time.Duration) (o obs, peak, total int) {
	for i, v := range j.FalseSuspicionSeries(truth, times) {
		o = o.hide(secondsLabel(times[i]), float64(v))
		peak = max(peak, v)
		total += v
	}
	return o, peak, total
}

// falseSuspicionTable fills t with the shape E3 and X2 share: one column per
// cell, one row per time point holding the family mean of falseSuspicions'
// count (the bare integer when R = 1).
func falseSuspicionTable(opts Options, t *Table, times []time.Duration, cells []cell) (*Table, error) {
	res, err := runGrid(opts, cells)
	if err != nil {
		return nil, err
	}
	for _, at := range times {
		label := secondsLabel(at)
		out := []string{label}
		for _, s := range res {
			out = append(out, famCount(s[label]))
		}
		t.AddRow(out...)
	}
	return t, nil
}

// E3Disturbance regenerates the "false suspicions over time" figure: one
// process is transiently slowed (not crashed); the time-free detector
// accumulates false suspicions and then corrects them by flooding the
// victim's self-refutation, while timer-based detectors hold the mistake
// until heartbeats outlive their timeouts again.
func E3Disturbance(opts Options) (*Table, error) {
	n := 20
	if opts.Quick {
		n = 8
	}
	const horizon = 60 * time.Second
	t := &Table{
		ID:      "E3",
		Title:   "false suspicions over time around a transient slowdown of one process",
		Note:    fmt.Sprintf("n=%d; p3 slowed ×3000 during [30s,40s); series sampled every second; reconstructed figure", n),
		Columns: []string{"t", "async", "heartbeat", "phi-accrual"},
	}
	var times []time.Duration
	for s := 25; s <= 55; s++ {
		times = append(times, time.Duration(s)*time.Second)
	}
	var cells []cell
	for _, kind := range []Kind{KindAsync, KindHeartbeat, KindPhi} {
		cfg := ClusterConfig{
			Kind: kind, N: n, F: n / 4,
			Seed: opts.seed(),
			Delay: netsim.Disturbance{
				Base:   defaultDelay(),
				Nodes:  ident.SetOf(3),
				Start:  30 * time.Second,
				End:    40 * time.Second,
				Factor: 3000,
			},
		}
		cells = append(cells, cell{
			key: fmt.Sprintf("slow/%s", kind),
			fam: &family{
				warm:    20 * time.Second, // slowdown starts at 30s
				horizon: horizon,
				build:   faulted(cfg, nil),
				measure: func(c *Cluster, truth *qos.GroundTruth) obs {
					j := qos.JudgeFrom(c.Log)
					o, peak, _ := falseSuspicions(j, truth, times)
					mist := j.Mistakes(truth, c.Members, horizon)
					return o.add("mistakes", float64(mist.Count)).
						add("mistake_dur_ms", qos.Millis(mist.AvgDuration)).
						add("peak_false_susp", float64(peak))
				},
			},
		})
	}
	return falseSuspicionTable(opts, t, times, cells)
}

// E4QoS measures the Chen–Toueg–Aguilera QoS triple (mistake rate, mistake
// duration, query accuracy) for all detectors across increasingly bursty
// delay distributions, with no crash at all: everything recorded is detector
// error.
func E4QoS(opts Options) (*Table, error) {
	horizon := 120 * time.Second
	if opts.Quick {
		horizon = 30 * time.Second
	}
	t := &Table{
		ID:      "E4",
		Title:   "QoS under delay-distribution sweep (no crashes: all suspicions are mistakes)",
		Note:    "n=10, f=3; λM = mistakes per pair per second, TM = mean mistake duration, PA = query accuracy; cell values are seed-family means",
		Columns: []string{"delay model", "detector", "mistakes", "λM", "TM", "PA"},
	}
	models := []struct {
		name  string
		model netsim.DelayModel
	}{
		{"constant 1ms", netsim.Constant{D: time.Millisecond}},
		{"uniform 0.5–5ms", netsim.Uniform{Min: 500 * time.Microsecond, Max: 5 * time.Millisecond}},
		{"exp mean 2ms", netsim.Exponential{Min: 500 * time.Microsecond, Mean: 2 * time.Millisecond, Cap: 10 * time.Second}},
		{"pareto α=1 2ms", netsim.Pareto{Scale: 2 * time.Millisecond, Alpha: 1.0, Cap: 30 * time.Second}},
	}
	var rows []row
	for _, m := range models {
		for _, kind := range AllKinds() {
			cfg := ClusterConfig{
				Kind: kind, N: 10, F: 3,
				Seed:  opts.seed(),
				Delay: m.model,
			}
			rows = append(rows, row{label: []string{m.name, kind.String()}, cells: []cell{{
				key: fmt.Sprintf("%s/%s", m.name, kind),
				fam: &family{
					warm:    5 * time.Second, // estimator windows are primed; mistakes accrue over the whole horizon
					horizon: horizon,
					build:   faulted(cfg, nil),
					measure: func(c *Cluster, truth *qos.GroundTruth) obs {
						judge := qos.JudgeFrom(c.Log)
						mist := judge.Mistakes(truth, c.Members, horizon)
						return obs{}.add("mistakes", float64(mist.Count)).
							add("mistake_rate", mist.Rate).
							add("mistake_dur_ms", qos.Millis(mist.AvgDuration)).
							add("query_accuracy", judge.QueryAccuracy(truth, c.Members, horizon))
					},
				},
			}}})
		}
	}
	return runTable(opts, t, rows, func(s series) []string {
		return []string{
			famCell("%.1f", "", s["mistakes"]),
			famCell("%.5f", "", s["mistake_rate"]),
			s.ms("mistake_dur_ms"),
			famCell("%.3f", "", s["query_accuracy"]),
		}
	})
}

// traffic records messages and wire bytes per process per second.
func (o obs) traffic(st netsim.Stats, n int, horizon time.Duration) obs {
	secs := horizon.Seconds()
	return o.add("msgs_per_proc_s", float64(st.Sent)/float64(n)/secs).
		add("bytes_per_proc_s", float64(st.Bytes)/float64(n)/secs)
}

// traffic renders the column pair of obs.traffic.
func (s series) traffic() []string {
	return []string{famCell("%.1f", "", s["msgs_per_proc_s"]), famCell("%.0f", "", s["bytes_per_proc_s"])}
}

// messageCostTable fills t with the traffic count shared by E5 and its
// large-n variant L5: messages and wire bytes per process per second on a
// stable network, one seed per cell (traffic is delay-schedule-stable), so
// the v2 rows carry single-sample families.
func messageCostTable(opts Options, t *Table, ns []int) (*Table, error) {
	horizon := 30 * time.Second
	if opts.Quick {
		horizon = 10 * time.Second
	}
	var rows []row
	for _, n := range ns {
		for _, kind := range AllKinds() {
			rows = append(rows, row{label: []string{strconv.Itoa(n), kind.String()}, cells: []cell{{
				key:  fmt.Sprintf("n=%d/%s", n, kind),
				once: true,
				job: func(seed int64) (obs, error) {
					c, err := NewCluster(ClusterConfig{
						Kind: kind, N: n, F: boundedF(n),
						Seed:       seed,
						Delay:      defaultDelay(),
						CountBytes: true,
					})
					if err != nil {
						return nil, err
					}
					c.RunUntil(horizon)
					opts.record(c.Sim)
					return obs{}.traffic(c.Net.Stats(), n, horizon), nil
				},
			}}})
		}
	}
	return runTable(opts, t, rows, series.traffic)
}

// E5MessageCost counts traffic: the query–response scheme costs two messages
// per monitored pair per round (query out, response back, both directions of
// the pair), versus one per pair per Δ for heartbeats — but query messages
// carry the suspicion state and are therefore larger.
func E5MessageCost(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "message cost per process per second vs n",
		Note:    "stable network, no crashes; bytes measured with the wire codec",
		Columns: []string{"n", "detector", "msgs/proc/s", "bytes/proc/s"},
	}
	ns := []int{4, 8, 16, 32}
	if opts.Quick {
		ns = []int{4, 8}
	}
	return messageCostTable(opts, t, ns)
}

// E6MPSensitivity probes the paper's behavioral assumption: with the pure
// protocol (window=0), eventual weak accuracy needs some process whose
// responses are always winning. The favored process's links are accelerated
// by a decreasing amount until the bias disappears; the experiment reports
// whether a never-suspected correct process exists in the tail of the run.
func E6MPSensitivity(opts Options) (*Table, error) {
	n, f := 10, 3
	if opts.Quick {
		n, f = 6, 2
	}
	const cut = 30 * time.Second
	t := &Table{
		ID:      "E6",
		Title:   "sensitivity to the message-pattern assumption (MP)",
		Note:    "pure protocol (window=0); base delay exp(mean 5ms); 'holds' = some correct process unsuspected after t=30s",
		Columns: []string{"favored-link delay", "runs where ◇S accuracy holds", "avg never-suspected processes", "favored suspected in tail"},
	}
	base := netsim.Exponential{Min: 500 * time.Microsecond, Mean: 5 * time.Millisecond, Cap: time.Second}
	biases := []struct {
		name string
		fast netsim.DelayModel
	}{
		{"0.2ms (strong MP)", netsim.Constant{D: 200 * time.Microsecond}},
		{"2ms (marginal)", netsim.Constant{D: 2 * time.Millisecond}},
		{"none (MP off)", nil},
	}
	var rows []row
	for _, b := range biases {
		var delay netsim.DelayModel = base
		if b.fast != nil {
			delay = netsim.Bias{Base: base, Fast: b.fast, Favored: ident.SetOf(0)}
		}
		cfg := ClusterConfig{
			Kind: KindAsync, N: n, F: f,
			Seed:     opts.seed(),
			Delay:    delay,
			Window:   time.Nanosecond,
			Interval: 100 * time.Millisecond,
		}
		rows = append(rows, row{label: []string{b.name}, cells: []cell{{
			key: fmt.Sprintf("mp=%s", b.name),
			fam: &family{
				warm:    5 * time.Second, // the tail cut is at 30s
				horizon: 60 * time.Second,
				build:   faulted(cfg, nil),
				measure: func(c *Cluster, _ *qos.GroundTruth) obs {
					// Suspected at the cut, or suspected anew after it.
					tail := qos.JudgeFrom(c.Log).SuspectedInTail(cut)
					never := n - tail.Len()
					return obs{}.add("never_suspected", float64(never)).
						add("holds", indicator(never > 0)).
						add("favored_suspected", indicator(tail.Has(0)))
				},
			},
		}}})
	}
	return runTable(opts, t, rows, func(s series) []string {
		return []string{s.ratio("holds"), famCell("%.1f", "", s["never_suspected"]), s.ratio("favored_suspected")}
	})
}

// E8Propagation measures how long a crash takes to become known to *every*
// correct process (the completeness spread): the time-free detector floods
// suspicions inside queries, so the spread stays near one query period; with
// independent heartbeat timers the spread follows the timer skew.
func E8Propagation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "suspicion propagation: spread between first and last observer detection",
		Note:    "crash at t=10.4s; spread = max−min permanent-detection time across observers",
		Columns: []string{"n", "async spread", "async max", "hb spread", "hb max"},
	}
	ns := []int{8, 16, 32}
	if opts.Quick {
		ns = []int{8}
	}
	var rows []row
	for _, n := range ns {
		r := row{label: []string{strconv.Itoa(n)}}
		for _, kind := range []Kind{KindAsync, KindHeartbeat} {
			r.cells = append(r.cells, crashCell(opts, kind, n, func(s qos.DetectionStats) obs {
				return obs{}.add("spread_ms", qos.Millis(s.Max-s.Min)).add("last_det_ms", qos.Millis(s.Max))
			}))
		}
		rows = append(rows, r)
	}
	return runTable(opts, t, rows, func(s series) []string {
		return []string{s.ms("spread_ms"), s.ms("last_det_ms")}
	})
}

// A1TagsAblation disables the counter-tag recency guards and replays stale
// suspicion messages after the system has converged: with the tags, stale
// information is discarded on arrival; without them, every replayed message
// resurrects a long-refuted suspicion and the whole network flaps again.
// The tags are exactly what lets accuracy stabilize in the presence of old
// messages — the asynchronous model allows arbitrarily delayed deliveries.
func A1TagsAblation(opts Options) (*Table, error) {
	const (
		horizon = 90 * time.Second
		tailCut = 55 * time.Second
	)
	t := &Table{
		ID:      "A1",
		Title:   "ablation: counter tags on/off under stale-message replay",
		Note:    "disturbance of p3 during [20s,25s); ten stale suspicion messages replayed during [60s,65s); tail = [55s,90s]",
		Columns: []string{"variant", "tail transitions", "suspected pairs at end", "closed mistakes"},
	}
	var rows []row
	for _, disable := range []bool{false, true} {
		name, key := "tags on (paper)", "tags=on"
		if disable {
			name, key = "tags off (ablated)", "tags=off"
		}
		build := faulted(ClusterConfig{
			Kind: KindAsync, N: 8, F: 2,
			Seed: opts.seed(),
			// A constant-delay base keeps the network itself mistake-free,
			// so every event in the tail is attributable to the replay.
			Delay: netsim.Disturbance{
				Base:   netsim.Constant{D: time.Millisecond},
				Nodes:  ident.SetOf(3),
				Start:  20 * time.Second,
				End:    25 * time.Second,
				Factor: 3000,
			},
			Window:      5 * time.Millisecond,
			Interval:    200 * time.Millisecond,
			DisableTags: disable,
		}, nil)
		rows = append(rows, row{label: []string{name}, cells: []cell{{
			key: key,
			fam: &family{
				warm:    18 * time.Second, // disturbance at 20s, replay at 60s
				horizon: horizon,
				build: func() (*Cluster, *qos.GroundTruth, error) {
					c, truth, err := build()
					if err != nil {
						return nil, nil, err
					}
					// Replay: an "old" query from p2 still carrying the long-refuted
					// suspicion ⟨p3, 1⟩ arrives at p5, ten times. Tag 1 is far below
					// the tags of p3's refutations from the disturbance. Scheduled at
					// build time, so the replay events are part of the checkpoint.
					stale := core.Query{From: 2, Round: 1, Suspected: []tagset.Entry{{ID: 3, Tag: 1}}}
					for i := 0; i < 10; i++ {
						at := 60*time.Second + time.Duration(i)*500*time.Millisecond
						c.Sim.At(at, func() { c.Inject(5, 2, stale) })
					}
					return c, truth, nil
				},
				measure: func(c *Cluster, truth *qos.GroundTruth) obs {
					tail := 0
					c.Log.Each(func(e trace.Event) bool {
						if e.At >= tailCut {
							tail++
						}
						return true
					})
					pairs := 0
					c.Members.ForEach(func(id ident.ID) bool {
						pairs += c.Detector(id).Suspects().Len()
						return true
					})
					return obs{}.add("tail_transitions", float64(tail)).
						add("suspected_pairs", float64(pairs)).
						add("mistakes", float64(qos.JudgeFrom(c.Log).Mistakes(truth, c.Members, horizon).Count))
				},
			},
		}}})
	}
	return runTable(opts, t, rows, func(s series) []string {
		return []string{famCount(s["tail_transitions"]), famCount(s["suspected_pairs"]), famCount(s["mistakes"])}
	})
}

// A2WindowAblation sweeps the extra collection window added after the quorum
// (the Δ the paper family inserts between lines 7 and 8): longer windows
// trade detection latency for fewer false suspicions.
func A2WindowAblation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "A2",
		Title:   "ablation: response collection window vs detection latency and accuracy",
		Note:    "n=10, f=3, exp(mean 2ms) delays; crash of p9 at t=20s",
		Columns: []string{"window", "det avg", "det max", "mistakes/pair/s", "PA"},
	}
	windows := []time.Duration{time.Nanosecond, 2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}
	if opts.Quick {
		windows = []time.Duration{time.Nanosecond, 10 * time.Millisecond}
	}
	var rows []row
	for _, w := range windows {
		label := "0"
		if w > time.Nanosecond {
			label = ms(w)
		}
		cfg := ClusterConfig{
			Kind: KindAsync, N: 10, F: 3,
			Seed:     opts.seed(),
			Delay:    netsim.Exponential{Min: 500 * time.Microsecond, Mean: 2 * time.Millisecond, Cap: 500 * time.Millisecond},
			Window:   w,
			Interval: 200 * time.Millisecond,
		}
		rows = append(rows, crashQoSRow([]string{label}, fmt.Sprintf("window=%s", label),
			cfg, 18*time.Second, 20*time.Second, 50*time.Second))
	}
	return runTable(opts, t, rows, crashQoSColumns)
}
