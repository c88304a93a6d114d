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
	// Fork selects how seed families replicate: zero and positive fork the
	// warmed prefix, negative runs the serial comparator that re-simulates
	// each replicate's warmup (the reference the differential tests compare
	// forking against). Tables and v2 rows are byte-identical whatever the
	// value.
	Fork int
	// Stats, when non-nil, accumulates kernel throughput counters across
	// every simulation the run executes.
	Stats *EngineStats
	// Samples, when non-nil, collects per-cell per-replicate metric
	// observations (detection times, mistake rates, …) that aggregate
	// into the distribution rows of the asyncfd-bench/v2 schema.
	// Collection is deterministic at any Parallel value: experiments
	// record samples from their ordered aggregation loops, never from
	// concurrently executing jobs.
	Samples *stats.Collector

	// gate, when non-nil, is the run-wide concurrency bound shared by every
	// runJobs call (installed by All so experiment-level and cell-level
	// fan-out together never exceed Workers() live simulations).
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

// Runs reports the resolved per-cell seed-family size R (Repeat when set,
// else 1 in Quick mode and 3 otherwise). cmd/fdbench records it in the v2
// bench report.
func (o Options) Runs() int { return o.runs() }

// sample records one seed-family observation when a collector is attached.
func (o Options) sample(cell, metric string, rep int, v float64) {
	if o.Samples != nil {
		o.Samples.Add(cell, metric, rep, v)
	}
}

// sampleDetection records a DetectionStats observation's average and
// maximum under prefix ("det" → "det_avg_ms", "det_max_ms").
func (o Options) sampleDetection(cell, prefix string, rep int, s qos.DetectionStats) {
	o.sample(cell, prefix+"_avg_ms", rep, qos.Millis(s.Avg))
	o.sample(cell, prefix+"_max_ms", rep, qos.Millis(s.Max))
}

// defaultDelay is the nominal asynchronous network: ~1ms one-hop average
// with an exponential tail, mirroring the paper family's δ = 1ms setup.
func defaultDelay() netsim.DelayModel {
	return netsim.Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 100 * time.Millisecond}
}

// detectionFamily builds the seed family shared by the detection sweeps
// (E1/L1/E8): crash one process, run to the horizon, measure detection
// statistics. The warm horizon must precede crashAt. The run closure is
// already single-pass over the trace — one qos.DetectionTimes call per
// replicate, no per-metric Judge rebuilds — so there is nothing left to
// hoist out of the replicate loop here.
func detectionFamily(opts Options, cfg ClusterConfig, crash ident.ID, crashAt, warm, horizon time.Duration, wrap func(error) error) family[qos.DetectionStats] {
	return family[qos.DetectionStats]{
		warm: warm,
		build: func() (*Cluster, *qos.GroundTruth, error) {
			c, err := NewCluster(cfg)
			if err != nil {
				return nil, nil, wrap(err)
			}
			return c, c.Apply(faults.Schedule{}.CrashAt(crash, crashAt)), nil
		},
		run: func(c *Cluster, truth *qos.GroundTruth) (qos.DetectionStats, error) {
			c.RunUntil(horizon)
			opts.record(c.Sim)
			observers := c.Members.Clone()
			observers.Remove(crash)
			return qos.DetectionTimes(c.Log, truth, crash, observers), nil
		},
	}
}

// aggregateDetection merges per-seed stats: mean of averages, min of
// minima, max of maxima.
func aggregateDetection(stats []qos.DetectionStats) qos.DetectionStats {
	var out qos.DetectionStats
	if len(stats) == 0 {
		return out
	}
	var avgSum time.Duration
	first := true
	for _, s := range stats {
		avgSum += s.Avg
		out.Count += s.Count
		out.Missing += s.Missing
		if first || s.Min < out.Min {
			out.Min = s.Min
		}
		if first || s.Max > out.Max {
			out.Max = s.Max
		}
		first = false
	}
	out.Avg = avgSum / time.Duration(len(stats))
	return out
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

// detectionColumns is the column set of the detection-time-vs-n sweeps.
var detectionColumns = []string{"n", "f",
	"async avg", "async max",
	"hb avg", "hb max",
	"phi avg", "phi max",
	"chen avg", "chen max"}

// detectionVsNTable fills t with the detection-time-vs-n sweep shared by
// E1 and its large-n variant L1: for every n, one process crashes
// mid-heartbeat-period and every detector kind's R-seed family measures
// detection stats, sampled per cell into the v2 rows.
func detectionVsNTable(opts Options, t *Table, ns []int) (*Table, error) {
	var fams []family[qos.DetectionStats]
	for _, n := range ns {
		n := n
		f := boundedF(n)
		for _, kind := range AllKinds() {
			kind := kind
			cfg := ClusterConfig{
				Kind: kind, N: n, F: f,
				Seed:  opts.seed(),
				Delay: defaultDelay(),
			}
			fams = append(fams, detectionFamily(opts, cfg,
				ident.ID(n-1), 10400*time.Millisecond, 10*time.Second, 30*time.Second,
				func(err error) error { return fmt.Errorf("%s %v n=%d: %w", t.ID, kind, n, err) }))
		}
	}
	stats, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, n := range ns {
		row := []string{strconv.Itoa(n), strconv.Itoa(boundedF(n))}
		for _, kind := range AllKinds() {
			cell := fmt.Sprintf("n=%d/%s", n, kind)
			avgs := make([]float64, 0, opts.runs())
			for r := 0; r < opts.runs(); r++ {
				opts.sampleDetection(cell, "det", r, stats[k+r])
				avgs = append(avgs, qos.Millis(stats[k+r].Avg))
			}
			agg := aggregateDetection(stats[k : k+opts.runs()])
			k += opts.runs()
			row = append(row, famMS(avgs), ms(agg.Max))
		}
		t.AddRow(row...)
	}
	return t, nil
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
	const horizon = 30 * time.Second
	type e2run struct {
		stats qos.DetectionStats
		rate  float64
		pa    float64
	}
	var fams []family[e2run]
	for _, f := range fs {
		f := f
		cfg := ClusterConfig{
			Kind: KindAsync, N: n, F: f,
			Seed:     opts.seed(),
			Delay:    defaultDelay(),
			Window:   time.Nanosecond, // effectively zero, explicit to skip default
			Interval: time.Second,
		}
		fams = append(fams, family[e2run]{
			warm: 9 * time.Second, // crash at 10s
			build: func() (*Cluster, *qos.GroundTruth, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("E2 f=%d: %w", f, err)
				}
				return c, c.Apply(faults.Schedule{}.CrashAt(ident.ID(n-1), 10*time.Second)), nil
			},
			run: func(c *Cluster, truth *qos.GroundTruth) (e2run, error) {
				c.RunUntil(horizon)
				opts.record(c.Sim)
				observers := c.Members.Clone()
				observers.Remove(ident.ID(n - 1))
				judge := qos.JudgeFrom(c.Log) // one trace pass for all three metrics
				return e2run{
					stats: judge.DetectionTimes(truth, ident.ID(n-1), observers),
					rate:  judge.Mistakes(truth, c.Members, horizon).Rate,
					pa:    judge.QueryAccuracy(truth, c.Members, horizon),
				}, nil
			},
		})
	}
	results, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, f := range fs {
		cell := fmt.Sprintf("f=%d", f)
		var stats []qos.DetectionStats
		var avgs, rates, pas []float64
		for r := 0; r < opts.runs(); r++ {
			res := results[k]
			k++
			stats = append(stats, res.stats)
			avgs = append(avgs, qos.Millis(res.stats.Avg))
			rates = append(rates, res.rate)
			pas = append(pas, res.pa)
			opts.sampleDetection(cell, "det", r, res.stats)
			opts.sample(cell, "mistake_rate", r, res.rate)
			opts.sample(cell, "query_accuracy", r, res.pa)
		}
		agg := aggregateDetection(stats)
		t.AddRow(strconv.Itoa(f), strconv.Itoa(n-f), famMS(avgs), ms(agg.Max),
			famCell("%.4f", "", rates), famCell("%.3f", "", pas))
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
	f := n / 4
	const (
		start   = 30 * time.Second
		end     = 40 * time.Second
		horizon = 60 * time.Second
	)
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
	kinds := []Kind{KindAsync, KindHeartbeat, KindPhi}
	type e3run struct {
		series []int
		mist   qos.MistakeStats
	}
	var fams []family[e3run]
	for _, kind := range kinds {
		kind := kind
		cfg := ClusterConfig{
			Kind: kind, N: n, F: f,
			Seed: opts.seed(),
			Delay: netsim.Disturbance{
				Base:   defaultDelay(),
				Nodes:  ident.SetOf(3),
				Start:  start,
				End:    end,
				Factor: 3000,
			},
		}
		fams = append(fams, family[e3run]{
			warm: 20 * time.Second, // slowdown starts at 30s
			build: func() (*Cluster, *qos.GroundTruth, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("E3 %v: %w", kind, err)
				}
				return c, nil, nil
			},
			run: func(c *Cluster, _ *qos.GroundTruth) (e3run, error) {
				c.RunUntil(horizon)
				opts.record(c.Sim)
				truth := &qos.GroundTruth{}
				return e3run{
					series: qos.FalseSuspicionSeries(c.Log, truth, times),
					mist:   qos.Mistakes(c.Log, truth, c.Members, horizon),
				}, nil
			},
		})
	}
	results, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	// perTime[kind][timepoint] holds the family's series values; the table
	// renders the family mean per timepoint (the bare integer when R = 1).
	perTime := make([][][]float64, len(kinds))
	k := 0
	for i, kind := range kinds {
		cell := fmt.Sprintf("slow/%s", kind)
		perTime[i] = make([][]float64, len(times))
		for r := 0; r < opts.runs(); r++ {
			res := results[k]
			k++
			peak := 0
			for ti, v := range res.series {
				perTime[i][ti] = append(perTime[i][ti], float64(v))
				if v > peak {
					peak = v
				}
			}
			opts.sample(cell, "mistakes", r, float64(res.mist.Count))
			opts.sample(cell, "mistake_dur_ms", r, qos.Millis(res.mist.AvgDuration))
			opts.sample(cell, "peak_false_susp", r, float64(peak))
		}
	}
	for ti, at := range times {
		t.AddRow(fmt.Sprintf("%ds", int(at/time.Second)),
			famCount(perTime[0][ti]),
			famCount(perTime[1][ti]),
			famCount(perTime[2][ti]))
	}
	return t, nil
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
	type e4cell struct {
		mist qos.MistakeStats
		pa   float64
	}
	var fams []family[e4cell]
	for _, m := range models {
		for _, kind := range AllKinds() {
			kind := kind
			cfg := ClusterConfig{
				Kind: kind, N: 10, F: 3,
				Seed:  opts.seed(),
				Delay: m.model,
			}
			fams = append(fams, family[e4cell]{
				warm: 5 * time.Second, // estimator windows are primed; mistakes accrue over the whole horizon
				build: func() (*Cluster, *qos.GroundTruth, error) {
					c, err := NewCluster(cfg)
					if err != nil {
						return nil, nil, fmt.Errorf("E4 %v: %w", kind, err)
					}
					return c, nil, nil
				},
				run: func(c *Cluster, _ *qos.GroundTruth) (e4cell, error) {
					c.RunUntil(horizon)
					opts.record(c.Sim)
					truth := &qos.GroundTruth{}
					judge := qos.JudgeFrom(c.Log)
					return e4cell{
						mist: judge.Mistakes(truth, c.Members, horizon),
						pa:   judge.QueryAccuracy(truth, c.Members, horizon),
					}, nil
				},
			})
		}
	}
	cells, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, m := range models {
		for _, kind := range AllKinds() {
			cellKey := fmt.Sprintf("%s/%s", m.name, kind)
			var counts, rates, durs, pas []float64
			for r := 0; r < opts.runs(); r++ {
				cell := cells[k]
				k++
				counts = append(counts, float64(cell.mist.Count))
				rates = append(rates, cell.mist.Rate)
				durs = append(durs, qos.Millis(cell.mist.AvgDuration))
				pas = append(pas, cell.pa)
				opts.sample(cellKey, "mistakes", r, float64(cell.mist.Count))
				opts.sample(cellKey, "mistake_rate", r, cell.mist.Rate)
				opts.sample(cellKey, "mistake_dur_ms", r, qos.Millis(cell.mist.AvgDuration))
				opts.sample(cellKey, "query_accuracy", r, cell.pa)
			}
			t.AddRow(m.name, kind.String(),
				famCell("%.1f", "", counts),
				famCell("%.5f", "", rates),
				famMS(durs),
				famCell("%.3f", "", pas))
		}
	}
	return t, nil
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
	var jobs []func() (netsim.Stats, error)
	for _, n := range ns {
		for _, kind := range AllKinds() {
			kind := kind
			cfg := ClusterConfig{
				Kind: kind, N: n, F: boundedF(n),
				Seed:       opts.seed(),
				Delay:      defaultDelay(),
				CountBytes: true,
			}
			jobs = append(jobs, func() (netsim.Stats, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return netsim.Stats{}, fmt.Errorf("%s %v: %w", t.ID, kind, err)
				}
				c.RunUntil(horizon)
				opts.record(c.Sim)
				return c.Net.Stats(), nil
			})
		}
	}
	cells, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	secs := horizon.Seconds()
	for _, n := range ns {
		for _, kind := range AllKinds() {
			st := cells[k]
			k++
			msgs := float64(st.Sent) / float64(n) / secs
			bytes := float64(st.Bytes) / float64(n) / secs
			cell := fmt.Sprintf("n=%d/%s", n, kind)
			opts.sample(cell, "msgs_per_proc_s", 0, msgs)
			opts.sample(cell, "bytes_per_proc_s", 0, bytes)
			t.AddRow(strconv.Itoa(n), kind.String(),
				fmt.Sprintf("%.1f", msgs),
				fmt.Sprintf("%.0f", bytes))
		}
	}
	return t, nil
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
	const (
		horizon = 60 * time.Second
		cut     = 30 * time.Second
	)
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
	type e6run struct {
		never       int
		favoredTail bool
	}
	var families []family[e6run]
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
		families = append(families, family[e6run]{
			warm: 5 * time.Second, // the tail cut is at 30s
			build: func() (*Cluster, *qos.GroundTruth, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("E6: %w", err)
				}
				return c, nil, nil
			},
			run: func(c *Cluster, _ *qos.GroundTruth) (e6run, error) {
				c.RunUntil(horizon)
				opts.record(c.Sim)
				// One episode-index pass replaces the pre-fork raw event scan
				// plus the O(pairs·events) SuspectedAt loop; the condition is
				// identical (suspected at the cut, or suspected anew after it).
				tail := qos.JudgeFrom(c.Log).SuspectedInTail(cut)
				return e6run{
					never:       n - tail.Len(),
					favoredTail: tail.Has(0),
				}, nil
			},
		})
	}
	results, err := runFamilies(opts, families)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, b := range biases {
		cell := fmt.Sprintf("mp=%s", b.name)
		holds := 0
		favoredTail := 0
		var nevers []float64
		for r := 0; r < opts.runs(); r++ {
			res := results[k]
			k++
			nevers = append(nevers, float64(res.never))
			holdsRun, favoredRun := 0.0, 0.0
			if res.never > 0 {
				holds++
				holdsRun = 1
			}
			if res.favoredTail {
				favoredTail++
				favoredRun = 1
			}
			opts.sample(cell, "never_suspected", r, float64(res.never))
			opts.sample(cell, "holds", r, holdsRun)
			opts.sample(cell, "favored_suspected", r, favoredRun)
		}
		t.AddRow(b.name,
			fmt.Sprintf("%d/%d", holds, opts.runs()),
			famCell("%.1f", "", nevers),
			fmt.Sprintf("%d/%d", favoredTail, opts.runs()))
	}
	return t, nil
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
	var fams []family[qos.DetectionStats]
	for _, n := range ns {
		n := n
		f := (n - 1) / 3
		for _, kind := range []Kind{KindAsync, KindHeartbeat} {
			kind := kind
			cfg := ClusterConfig{
				Kind: kind, N: n, F: f,
				Seed:  opts.seed(),
				Delay: defaultDelay(),
			}
			fams = append(fams, detectionFamily(opts, cfg,
				ident.ID(n-1), 10400*time.Millisecond, 10*time.Second, 30*time.Second,
				func(err error) error { return fmt.Errorf("E8 %v: %w", kind, err) }))
		}
	}
	stats, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, n := range ns {
		row := []string{strconv.Itoa(n)}
		for _, kind := range []Kind{KindAsync, KindHeartbeat} {
			cell := fmt.Sprintf("n=%d/%s", n, kind)
			var spreads, maxes []float64
			for r := 0; r < opts.runs(); r++ {
				s := stats[k]
				k++
				spreads = append(spreads, qos.Millis(s.Max-s.Min))
				maxes = append(maxes, qos.Millis(s.Max))
				opts.sample(cell, "spread_ms", r, qos.Millis(s.Max-s.Min))
				opts.sample(cell, "last_det_ms", r, qos.Millis(s.Max))
			}
			row = append(row, famMS(spreads), famMS(maxes))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// A1TagsAblation disables the counter-tag recency guards and replays stale
// suspicion messages after the system has converged: with the tags, stale
// information is discarded on arrival; without them, every replayed message
// resurrects a long-refuted suspicion and the whole network flaps again.
// The tags are exactly what lets accuracy stabilize in the presence of old
// messages — the asynchronous model allows arbitrarily delayed deliveries.
func A1TagsAblation(opts Options) (*Table, error) {
	n, f := 8, 2
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
	type a1cell struct {
		tail  int
		pairs int
		mist  int
	}
	variants := []bool{false, true}
	var fams []family[a1cell]
	for _, disable := range variants {
		disable := disable
		cfg := ClusterConfig{
			Kind: KindAsync, N: n, F: f,
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
		}
		fams = append(fams, family[a1cell]{
			warm: 18 * time.Second, // disturbance at 20s, replay at 60s
			build: func() (*Cluster, *qos.GroundTruth, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("A1: %w", err)
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
				return c, nil, nil
			},
			run: func(c *Cluster, _ *qos.GroundTruth) (a1cell, error) {
				c.RunUntil(horizon)
				opts.record(c.Sim)
				tail := 0
				for _, e := range c.Log.Events() {
					if e.At >= tailCut {
						tail++
					}
				}
				pairs := 0
				c.Members.ForEach(func(id ident.ID) bool {
					pairs += c.Detector(id).Suspects().Len()
					return true
				})
				mist := qos.Mistakes(c.Log, &qos.GroundTruth{}, c.Members, horizon)
				return a1cell{tail: tail, pairs: pairs, mist: mist.Count}, nil
			},
		})
	}
	cells, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, disable := range variants {
		name, cell := "tags on (paper)", "tags=on"
		if disable {
			name, cell = "tags off (ablated)", "tags=off"
		}
		var tails, pairs, mists []float64
		for r := 0; r < opts.runs(); r++ {
			res := cells[k]
			k++
			tails = append(tails, float64(res.tail))
			pairs = append(pairs, float64(res.pairs))
			mists = append(mists, float64(res.mist))
			opts.sample(cell, "tail_transitions", r, float64(res.tail))
			opts.sample(cell, "suspected_pairs", r, float64(res.pairs))
			opts.sample(cell, "mistakes", r, float64(res.mist))
		}
		t.AddRow(name, famCount(tails), famCount(pairs), famCount(mists))
	}
	return t, nil
}

// A2WindowAblation sweeps the extra collection window added after the quorum
// (the Δ the paper family inserts between lines 7 and 8): longer windows
// trade detection latency for fewer false suspicions.
func A2WindowAblation(opts Options) (*Table, error) {
	n, f := 10, 3
	const horizon = 50 * time.Second
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
	type a2cell struct {
		det  qos.DetectionStats
		rate float64
		pa   float64
	}
	var fams []family[a2cell]
	for _, w := range windows {
		cfg := ClusterConfig{
			Kind: KindAsync, N: n, F: f,
			Seed:     opts.seed(),
			Delay:    netsim.Exponential{Min: 500 * time.Microsecond, Mean: 2 * time.Millisecond, Cap: 500 * time.Millisecond},
			Window:   w,
			Interval: 200 * time.Millisecond,
		}
		fams = append(fams, family[a2cell]{
			warm: 18 * time.Second, // crash at 20s
			build: func() (*Cluster, *qos.GroundTruth, error) {
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, nil, fmt.Errorf("A2: %w", err)
				}
				return c, c.Apply(faults.Schedule{}.CrashAt(ident.ID(n-1), 20*time.Second)), nil
			},
			run: func(c *Cluster, truth *qos.GroundTruth) (a2cell, error) {
				c.RunUntil(horizon)
				opts.record(c.Sim)
				observers := c.Members.Clone()
				observers.Remove(ident.ID(n - 1))
				judge := qos.JudgeFrom(c.Log)
				return a2cell{
					det:  judge.DetectionTimes(truth, ident.ID(n-1), observers),
					rate: judge.Mistakes(truth, c.Members, horizon).Rate,
					pa:   judge.QueryAccuracy(truth, c.Members, horizon),
				}, nil
			},
		})
	}
	cells, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, w := range windows {
		label := "0"
		if w > time.Nanosecond {
			label = ms(w)
		}
		cellKey := fmt.Sprintf("window=%s", label)
		var dets []qos.DetectionStats
		var avgs, rates, pas []float64
		for r := 0; r < opts.runs(); r++ {
			res := cells[k]
			k++
			dets = append(dets, res.det)
			avgs = append(avgs, qos.Millis(res.det.Avg))
			rates = append(rates, res.rate)
			pas = append(pas, res.pa)
			opts.sampleDetection(cellKey, "det", r, res.det)
			opts.sample(cellKey, "mistake_rate", r, res.rate)
			opts.sample(cellKey, "query_accuracy", r, res.pa)
		}
		agg := aggregateDetection(dets)
		t.AddRow(label, famMS(avgs), ms(agg.Max), famCell("%.4f", "", rates), famCell("%.3f", "", pas))
	}
	return t, nil
}
