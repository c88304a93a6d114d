package exp

// scenario_config.go executes compiled scenario configurations
// (internal/scenario, the asyncfd-scenario/v1 DSL) on the cell grid the Go
// experiments run on (grid.go): the cluster program's cells are warm-fork
// families, the topology and consensus programs' are seed-addressed jobs —
// with the same formatters and the same v2 sample conventions. R1, R2, LT and E7 are embedded documents
// run from here (scenario_exp.go); TestBuiltinScenarioGolden holds their
// tables to the bytes the hand-written Go versions rendered, at any
// -parallel width, fork on or off.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"asyncfd/internal/consensus"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/qos"
	"asyncfd/internal/scenario"
	"asyncfd/internal/topology"
)

// scenarioKinds converts a compiled detector list to cluster kinds. The
// scenario package validated the names against its DetectorNames list,
// which TestScenarioNameListsMatchEngine holds to AllKinds().
func scenarioKinds(sc *scenario.Scenario) ([]Kind, error) {
	kinds := make([]Kind, len(sc.Cluster.Detectors))
	for i, name := range sc.Cluster.Detectors {
		kinds[i] = Kind(name)
		if !slices.Contains(AllKinds(), kinds[i]) {
			return nil, fmt.Errorf("unknown detector %q", name)
		}
	}
	return kinds, nil
}

// scenarioClusterConfig assembles the ClusterConfig of one scenario cell.
func scenarioClusterConfig(sc *scenario.Scenario, kind Kind, seed int64) ClusterConfig {
	cl := sc.Cluster
	return ClusterConfig{
		Kind: kind, N: cl.N, F: cl.F,
		Seed:        seed,
		Delay:       cl.Delay,
		StartJitter: cl.StartJitter,

		Window:      cl.Window,
		Interval:    cl.Interval,
		Rebroadcast: cl.Rebroadcast,
		DisableTags: cl.DisableTags,

		HBInterval:   cl.HBInterval,
		HBTimeout:    cl.HBTimeout,
		PhiThreshold: cl.PhiThreshold,
		ChenAlpha:    cl.ChenAlpha,
	}
}

// ScenarioTable runs a compiled scenario and renders its table, collecting
// v2 samples exactly like the built-in experiments. A scenario's Repeat
// becomes the seed-family size unless the caller pinned Options.Repeat.
func ScenarioTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	if opts.Repeat == 0 && sc.Repeat > 0 {
		opts.Repeat = sc.Repeat
	}
	var program func(*scenario.Scenario, Options) (*Table, error)
	switch sc.Measure.Program {
	case scenario.ProgramCluster:
		program = scenarioClusterTable
	case scenario.ProgramTopology:
		program = scenarioTopologyTable
	case scenario.ProgramConsensus:
		program = scenarioConsensusTable
	default:
		return nil, fmt.Errorf("exp: scenario %s: unknown program %v", sc.Name, sc.Measure.Program)
	}
	t, err := program(sc, opts)
	if err != nil {
		return nil, fmt.Errorf("exp: scenario %s: %w", sc.Name, err)
	}
	return t, nil
}

// scenarioObserve measures one replicate of a cluster-program cell: every
// configured metric off one fold of the trace. A detection-kind metric
// records name_avg_ms and name_max_ms plus the unsampled name_missing; a
// storm records name; a reconvergence records name (the settle time, ms)
// and its 0/1 clean indicator.
func scenarioObserve(metrics []scenario.Metric, c *Cluster, truth *qos.GroundTruth) obs {
	folded := make([]qos.Metric, len(metrics))
	for i, m := range metrics {
		switch m.Kind {
		case scenario.MetricStorm:
			folded[i] = qos.NewMistakeStorm(truth, c.Members, m.From, m.To)
		case scenario.MetricReconvergence:
			folded[i] = qos.NewReconvergence(truth, c.Members, m.After)
		default:
			observers := ident.SetOf(m.Observers...)
			if len(m.Observers) == 0 {
				observers = c.Members.Clone()
				observers.Remove(m.Victim)
			}
			switch m.Kind {
			case scenario.MetricDetection:
				folded[i] = qos.NewDetectionTimes(truth, m.Victim, observers)
			case scenario.MetricRedetection:
				folded[i] = qos.NewRedetectionTimes(truth, m.Victim, observers, m.Episode)
			case scenario.MetricTrustRestoration:
				folded[i] = qos.NewTrustRestorationTimes(truth, m.Victim, observers, m.Episode)
			}
		}
	}
	qos.Fold(c.Log, folded...)
	var o obs
	for i, m := range metrics {
		switch f := folded[i].(type) {
		case *qos.MistakeStorm:
			o = o.add(m.Name, float64(f.Result()))
		case *qos.Reconvergence:
			settle, clean := f.Result()
			o = o.add(m.Name, qos.Millis(settle)).add(m.CleanName, indicator(clean))
		case *qos.Detection:
			det := f.Result()
			o = o.detection(m.Name, det).hide(m.Name+"_missing", float64(det.Missing))
		}
	}
	return o
}

// scenarioColumns compiles the column list into the row renderer over
// scenarioObserve's observations. scenario.Parse has already cross-checked
// metrics and columns; a Scenario assembled by hand has not, so an unknown
// kind or a column naming no metric is refused here, before anything runs.
func scenarioColumns(sc *scenario.Scenario) (func(series) []string, error) {
	detection, known := map[string]bool{}, map[string]bool{}
	for _, m := range sc.Measure.Metrics {
		known[m.Name] = true
		switch m.Kind {
		case scenario.MetricDetection, scenario.MetricRedetection, scenario.MetricTrustRestoration:
			detection[m.Name] = true
		case scenario.MetricStorm:
		case scenario.MetricReconvergence:
			known[m.CleanName] = true
		default:
			return nil, fmt.Errorf("unknown metric kind %v", m.Kind)
		}
	}
	renders := make([]func(series) string, len(sc.Measure.Columns))
	for i, col := range sc.Measure.Columns {
		name := col.Metric
		if !known[name] {
			return nil, fmt.Errorf("column %q references unknown stream %q", col.Header, name)
		}
		switch col.Kind {
		case scenario.ColFamMS:
			if detection[name] {
				name += "_avg_ms"
			}
			renders[i] = func(s series) string { return s.ms(name) }
		case scenario.ColMaxMS:
			if detection[name] {
				name += "_max_ms"
			}
			renders[i] = func(s series) string { return s.maxMS(name) }
		case scenario.ColMissing:
			renders[i] = func(s series) string { return strconv.Itoa(int(s.sum(name + "_missing"))) }
		case scenario.ColFam:
			renders[i] = func(s series) string { return famCell(col.Format, "", s[name]) }
		case scenario.ColRatio:
			renders[i] = func(s series) string { return s.ratio(name) }
		default:
			return nil, fmt.Errorf("unknown column kind %v", col.Kind)
		}
	}
	return func(s series) []string {
		out := make([]string, len(renders))
		for i, render := range renders {
			out[i] = render(s)
		}
		return out
	}, nil
}

// scenarioClusterTable is the general program: detector kinds × fault
// variants as warm-forked seed families, config-driven metrics and columns.
func scenarioClusterTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	t, rows, render, err := scenarioClusterRows(sc, opts)
	if err != nil {
		return nil, err
	}
	return runTable(opts, t, rows, render)
}

// ScenarioCell runs one cell of a cluster-program scenario as a single
// replicate. key is the cell's v2 key ("async", "heartbeat/fresh"); "" is
// the first cell. It returns the scenario's table holding that cell's row,
// the row ScenarioTable renders for it at Repeat 1, with the finished
// cluster and the ground truth of its fault schedule.
func ScenarioCell(sc *scenario.Scenario, key string, opts Options) (*Table, *Cluster, *qos.GroundTruth, error) {
	if sc.Measure.Program != scenario.ProgramCluster {
		return nil, nil, nil, fmt.Errorf("exp: scenario %s: the %v program has no single cell to run", sc.Name, sc.Measure.Program)
	}
	t, rows, render, err := scenarioClusterRows(sc, opts)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("exp: scenario %s: %w", sc.Name, err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.cells[0].key
	}
	i := 0
	if key != "" {
		i = slices.Index(keys, key)
	}
	if i < 0 {
		return nil, nil, nil, fmt.Errorf("exp: scenario %s: no cell %q (cells: %s)", sc.Name, key, strings.Join(keys, ", "))
	}
	var c *Cluster
	var truth *qos.GroundTruth
	fam := rows[i].cells[0].fam
	measure := fam.measure
	fam.measure = func(got *Cluster, gt *qos.GroundTruth) obs {
		c, truth = got, gt
		return measure(got, gt)
	}
	opts.Repeat = 1
	if _, err := runTable(opts, t, rows[i:i+1], render); err != nil {
		return nil, nil, nil, fmt.Errorf("exp: scenario %s: %w", sc.Name, err)
	}
	return t, c, truth, nil
}

// scenarioClusterRows builds the cluster program's empty table and its
// rows, one single-cell row per detector kind × fault variant, keyed
// "kind" or, when the scenario names its variants, "kind/variant".
func scenarioClusterRows(sc *scenario.Scenario, opts Options) (*Table, []row, func(series) []string, error) {
	kinds, err := scenarioKinds(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	render, err := scenarioColumns(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	columns := []string{"detector"}
	if sc.VariantHeader != "" {
		columns = append(columns, sc.VariantHeader)
	}
	for _, col := range sc.Measure.Columns {
		columns = append(columns, col.Header)
	}
	t := &Table{ID: sc.Name, Title: sc.Title, Note: sc.Note, Columns: columns}

	singleUnnamed := len(sc.Variants) == 1 && sc.Variants[0].Name == ""
	var rows []row
	for _, kind := range kinds {
		for _, v := range sc.Variants {
			key, label := string(kind), []string{string(kind)}
			if !singleUnnamed {
				key = fmt.Sprintf("%s/%s", kind, v.Name)
			}
			if sc.VariantHeader != "" {
				label = append(label, v.Name)
			}
			rows = append(rows, row{label: label, cells: []cell{{
				key: key,
				fam: &family{
					warm:    sc.Measure.Warm,
					horizon: sc.Measure.Horizon,
					build:   faulted(scenarioClusterConfig(sc, kind, opts.seed()), v.Faults),
					measure: func(c *Cluster, truth *qos.GroundTruth) obs {
						return scenarioObserve(sc.Measure.Metrics, c, truth)
					},
				},
			}}})
		}
	}
	return t, rows, render, nil
}

// scenarioTopologyTable is the topology program (LT's sweep): neighbor-local
// heartbeat detection over the configured topology families and machine
// sizes, one crash per run.
func scenarioTopologyTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	t := &Table{
		ID: sc.Name, Title: sc.Title, Note: sc.Note,
		Columns: []string{"topology", "n", "avg deg", "det avg", "det max", "msgs/proc/s", "bytes/proc/s"},
	}
	horizon := sc.Measure.Horizon
	var rows []row
	for _, topo := range sc.Measure.Topologies {
		build, err := topology.Family(topo)
		if err != nil {
			return nil, err
		}
		for _, n := range sc.Measure.Ns {
			rows = append(rows, row{label: []string{topo, strconv.Itoa(n)}, cells: []cell{{
				key: fmt.Sprintf("%s/n=%d", topo, n),
				job: func(seed int64) (obs, error) {
					//fdlint:allow rngdiscipline seed-addressed graph construction before the kernel runs; never interleaves with kernel draws
					g := build(n, rand.New(rand.NewSource(seed)))
					degSum := 0
					for v := 0; v < n; v++ {
						degSum += g.Degree(ident.ID(v))
					}
					c, err := NewCluster(ClusterConfig{
						Kind: KindHeartbeat, Graph: g, Seed: seed, Delay: sc.Cluster.Delay, CountBytes: true,
						HBInterval: sc.Measure.Interval, HBTimeout: sc.Measure.Timeout,
					})
					if err != nil {
						return nil, err
					}
					victim := ltVictim(g)
					truth := c.Apply(faults.Schedule{}.CrashAt(victim, sc.Measure.CrashAt))
					c.RunUntil(horizon)
					opts.record(c.Sim)
					det := qos.NewDetectionTimes(truth, victim, g.Neighbors(victim))
					qos.Fold(c.Log, det)
					return obs{}.detection("det", det.Result()).
						add("avg_degree", float64(degSum)/float64(n)).
						traffic(c.Net.Stats(), n, horizon), nil
				},
			}}})
		}
	}
	return runTable(opts, t, rows, func(s series) []string {
		return slices.Concat([]string{famCell("%.1f", "", s["avg_degree"])}, s.detection("det"), s.traffic())
	})
}

// scenarioConsensusLatency runs one consensus instance under the scenario's
// fault schedule: Chandra–Toueg consensus over the configured detector
// kind, proposals at sc.Measure.Propose, the scenario's crash/recover/
// partition events applied through the detector-restarting recovery hook,
// and the worst decision latency among never-crashed survivors returned.
func scenarioConsensusLatency(sc *scenario.Scenario, opts Options, kind Kind, seed int64) (time.Duration, error) {
	n, f := sc.Cluster.N, sc.Cluster.F
	propose, horizon := sc.Measure.Propose, sc.Measure.Horizon
	c, err := NewCluster(scenarioClusterConfig(sc, kind, seed))
	if err != nil {
		return 0, err
	}
	sched := sc.Variants[0].Faults
	c.Apply(sched)
	decidedAt := make(map[ident.ID]time.Duration)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		cons, err := consensus.NewNode(c.Net.Env(id), consensus.Config{
			Self: id, N: n, F: f, Detector: c.Detector(id),
			OnDecide: func(consensus.Value) { decidedAt[id] = c.Sim.Now() },
		})
		if err != nil {
			return 0, err
		}
		c.Attach(id, cons)
		v := consensus.Value(100 + i)
		c.Sim.At(propose, func() { cons.Propose(v) })
	}
	c.RunUntil(horizon)
	opts.record(c.Sim)

	crashed := sched.IDs()
	var worst time.Duration
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		if crashed.Has(id) {
			continue
		}
		at, ok := decidedAt[id]
		if !ok {
			return 0, fmt.Errorf("consensus over %v: survivor p%d undecided after %v", kind, i, horizon)
		}
		if lat := at - propose; lat > worst {
			worst = lat
		}
	}
	return worst, nil
}

// scenarioConsensusTable is the consensus program (E7's table): decision
// latency of the worst never-crashed survivor, per detector kind, under the
// scenario's fault schedule.
func scenarioConsensusTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	kinds, err := scenarioKinds(sc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: sc.Name, Title: sc.Title, Note: sc.Note,
		Columns: []string{"detector", "decision latency (worst survivor, avg of runs)"},
	}
	var rows []row
	for _, kind := range kinds {
		rows = append(rows, row{label: []string{string(kind)}, cells: []cell{{
			key: fmt.Sprintf("consensus/%s", kind),
			job: func(seed int64) (obs, error) {
				lat, err := scenarioConsensusLatency(sc, opts, kind, seed)
				return obs{}.add("decision_ms", qos.Millis(lat)), err
			},
		}}})
	}
	return runTable(opts, t, rows, func(s series) []string { return []string{s.ms("decision_ms")} })
}
