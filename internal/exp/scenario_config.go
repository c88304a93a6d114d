package exp

// scenario_config.go executes compiled scenario configurations
// (internal/scenario, the asyncfd-scenario/v1 DSL) on the machinery the Go
// experiments run on: the cluster program uses the same warm-fork seed
// families (runFamilies), the topology and consensus programs the same
// seed-addressed job decomposition (runJobs) — with the same formatters and
// the same v2 sample conventions. R1, R2, LT and E7 are embedded documents
// run from here (scenario_exp.go); TestBuiltinScenarioGolden holds their
// tables to the bytes the hand-written Go versions rendered, at any
// -parallel width, fork on or off.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"asyncfd/internal/consensus"
	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/qos"
	"asyncfd/internal/scenario"
)

// scenarioKinds maps a compiled detector list to cluster kinds by
// Kind.String(), so the names live in one place. The scenario package
// validated them against its DetectorNames list, which mirrors it.
func scenarioKinds(sc *scenario.Scenario) ([]Kind, error) {
	all := AllKinds()
	kinds := make([]Kind, len(sc.Cluster.Detectors))
	for i, name := range sc.Cluster.Detectors {
		k := slices.IndexFunc(all, func(k Kind) bool { return k.String() == name })
		if k < 0 {
			return nil, fmt.Errorf("exp: scenario %s: unknown detector %q", sc.Name, name)
		}
		kinds[i] = all[k]
	}
	return kinds, nil
}

// scenarioClusterConfig assembles the ClusterConfig of one scenario cell.
func scenarioClusterConfig(sc *scenario.Scenario, kind Kind, seed int64) ClusterConfig {
	cl := sc.Cluster
	return ClusterConfig{
		Kind: kind, N: cl.N, F: cl.F,
		Seed:  seed,
		Delay: cl.Delay,

		CountBytes:  cl.CountBytes,
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
	switch sc.Measure.Program {
	case scenario.ProgramCluster:
		return scenarioClusterTable(sc, opts)
	case scenario.ProgramTopology:
		return scenarioTopologyTable(sc, opts)
	case scenario.ProgramConsensus:
		return scenarioConsensusTable(sc, opts)
	default:
		return nil, fmt.Errorf("exp: scenario %s: unknown program %v", sc.Name, sc.Measure.Program)
	}
}

// scMeasurement is one replicate's value of one metric; only the fields of
// the metric's kind are set.
type scMeasurement struct {
	det    qos.DetectionStats
	scalar float64
	settle time.Duration
	clean  bool
}

// scStream accumulates one named sample stream across a cell's replicates
// for column rendering.
type scStream struct {
	dets    []qos.DetectionStats // detection-family streams
	vals    []float64            // famMS/famCell inputs (ms or scalar)
	max     time.Duration        // worst settle (duration streams)
	nonzero int                  // true count (indicator streams)
}

// scenarioClusterTable is the general program: detector kinds × fault
// variants as warm-forked seed families, config-driven metrics and columns.
// The structure is R1's, generalized.
func scenarioClusterTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	kinds, err := scenarioKinds(sc)
	if err != nil {
		return nil, err
	}
	columns := []string{"detector"}
	if sc.VariantHeader != "" {
		columns = append(columns, sc.VariantHeader)
	}
	for _, col := range sc.Measure.Columns {
		columns = append(columns, col.Header)
	}
	t := &Table{ID: sc.Name, Title: sc.Title, Note: sc.Note, Columns: columns}

	horizon := sc.Measure.Horizon
	metrics := sc.Measure.Metrics
	var fams []family[[]scMeasurement]
	for _, kind := range kinds {
		kind := kind
		for _, v := range sc.Variants {
			v := v
			cfg := scenarioClusterConfig(sc, kind, opts.seed())
			fams = append(fams, family[[]scMeasurement]{
				warm: sc.Measure.Warm,
				build: func() (*Cluster, *qos.GroundTruth, error) {
					c, err := NewCluster(cfg)
					if err != nil {
						return nil, nil, fmt.Errorf("scenario %s %v/%s: %w", sc.Name, kind, v.Name, err)
					}
					return c, c.Apply(v.Faults), nil
				},
				run: func(c *Cluster, truth *qos.GroundTruth) ([]scMeasurement, error) {
					c.RunUntil(horizon)
					opts.record(c.Sim)
					judge := qos.JudgeFrom(c.Log) // one trace pass for every metric
					out := make([]scMeasurement, len(metrics))
					for mi, m := range metrics {
						switch m.Kind {
						case scenario.MetricDetection, scenario.MetricRedetection, scenario.MetricTrustRestoration:
							var observers ident.Set
							if len(m.Observers) > 0 {
								for _, id := range m.Observers {
									observers.Add(id)
								}
							} else {
								observers = c.Members.Clone()
								observers.Remove(m.Victim)
							}
							switch m.Kind {
							case scenario.MetricDetection:
								out[mi].det = judge.DetectionTimes(truth, m.Victim, observers)
							case scenario.MetricRedetection:
								out[mi].det = judge.RedetectionTimes(truth, m.Victim, observers, m.Episode)
							default:
								out[mi].det = judge.TrustRestorationTimes(truth, m.Victim, observers, m.Episode)
							}
						case scenario.MetricStorm:
							out[mi].scalar = float64(judge.MistakeStorm(truth, c.Members, m.From, m.To))
						case scenario.MetricReconvergence:
							out[mi].settle, out[mi].clean = judge.Reconvergence(truth, c.Members, m.After)
						default:
							return nil, fmt.Errorf("scenario %s: unknown metric kind %v", sc.Name, m.Kind)
						}
					}
					return out, nil
				},
			})
		}
	}
	cells, err := runFamilies(opts, fams)
	if err != nil {
		return nil, err
	}

	singleUnnamed := len(sc.Variants) == 1 && sc.Variants[0].Name == ""
	k := 0
	for _, kind := range kinds {
		for _, v := range sc.Variants {
			cellKey := kind.String()
			if !singleUnnamed {
				cellKey = fmt.Sprintf("%s/%s", kind, v.Name)
			}
			streams := map[string]*scStream{}
			stream := func(name string) *scStream {
				s, ok := streams[name]
				if !ok {
					s = &scStream{}
					streams[name] = s
				}
				return s
			}
			for r := 0; r < opts.runs(); r++ {
				vals := cells[k]
				k++
				for mi, m := range metrics {
					mv := vals[mi]
					switch m.Kind {
					case scenario.MetricDetection, scenario.MetricRedetection, scenario.MetricTrustRestoration:
						s := stream(m.Name)
						s.dets = append(s.dets, mv.det)
						s.vals = append(s.vals, qos.Millis(mv.det.Avg))
						opts.sampleDetection(cellKey, m.Name, r, mv.det)
					case scenario.MetricStorm:
						s := stream(m.Name)
						s.vals = append(s.vals, mv.scalar)
						opts.sample(cellKey, m.Name, r, mv.scalar)
					case scenario.MetricReconvergence:
						s := stream(m.Name)
						s.vals = append(s.vals, qos.Millis(mv.settle))
						if mv.settle > s.max {
							s.max = mv.settle
						}
						opts.sample(cellKey, m.Name, r, qos.Millis(mv.settle))
						cs := stream(m.CleanName)
						clean := 0.0
						if mv.clean {
							cs.nonzero++
							clean = 1
						}
						cs.vals = append(cs.vals, clean)
						opts.sample(cellKey, m.CleanName, r, clean)
					}
				}
			}
			row := []string{kind.String()}
			if sc.VariantHeader != "" {
				row = append(row, v.Name)
			}
			for _, col := range sc.Measure.Columns {
				s := streams[col.Metric]
				if s == nil {
					return nil, fmt.Errorf("exp: scenario %s: column %q references unknown stream %q", sc.Name, col.Header, col.Metric)
				}
				switch col.Kind {
				case scenario.ColFamMS:
					row = append(row, famMS(s.vals))
				case scenario.ColMaxMS:
					if len(s.dets) > 0 {
						row = append(row, ms(aggregateDetection(s.dets).Max))
					} else {
						row = append(row, ms(s.max))
					}
				case scenario.ColMissing:
					row = append(row, strconv.Itoa(aggregateDetection(s.dets).Missing))
				case scenario.ColFam:
					row = append(row, famCell(col.Format, "", s.vals))
				case scenario.ColRatio:
					row = append(row, fmt.Sprintf("%d/%d", s.nonzero, opts.runs()))
				default:
					return nil, fmt.Errorf("exp: scenario %s: unknown column kind %v", sc.Name, col.Kind)
				}
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// scenarioTopologyTable is the topology program (LT's sweep): neighbor-local
// heartbeat detection over the configured topology families and machine
// sizes, one crash per run.
func scenarioTopologyTable(sc *scenario.Scenario, opts Options) (*Table, error) {
	t := &Table{
		ID: sc.Name, Title: sc.Title, Note: sc.Note,
		Columns: []string{"topology", "n", "avg deg", "det avg", "det max", "msgs/proc/s", "bytes/proc/s"},
	}
	crashAt, horizon := sc.Measure.CrashAt, sc.Measure.Horizon
	interval, timeout := sc.Measure.Interval, sc.Measure.Timeout
	delay := sc.Cluster.Delay
	ns := sc.Measure.Ns
	var jobs []func() (ltRun, error)
	for _, topo := range sc.Measure.Topologies {
		topo := topo
		for _, n := range ns {
			n := n
			for r := 0; r < opts.runs(); r++ {
				seed := opts.seed() + int64(r)*101
				jobs = append(jobs, func() (ltRun, error) {
					//fdlint:allow rngdiscipline seed-addressed graph construction before the kernel runs; never interleaves with kernel draws
					g := ltGraph(topo, n, rand.New(rand.NewSource(seed)))
					degSum := 0
					for v := 0; v < n; v++ {
						degSum += g.Degree(ident.ID(v))
					}
					c, err := NewCluster(ClusterConfig{
						Kind: KindHeartbeat, Graph: g, Seed: seed, Delay: delay, CountBytes: true,
						HBInterval: interval, HBTimeout: timeout,
					})
					if err != nil {
						return ltRun{}, fmt.Errorf("scenario %s %s n=%d: %w", sc.Name, topo, n, err)
					}
					victim := ltVictim(g)
					truth := c.Apply(faults.Schedule{}.CrashAt(victim, crashAt))
					c.RunUntil(horizon)
					opts.record(c.Sim)
					observers := g.Neighbors(victim)
					return ltRun{
						det:    qos.JudgeFrom(c.Log).DetectionTimes(truth, victim, observers),
						stats:  c.Net.Stats(),
						avgDeg: float64(degSum) / float64(n),
					}, nil
				})
			}
		}
	}
	results, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	secs := horizon.Seconds()
	for _, topo := range sc.Measure.Topologies {
		for _, n := range ns {
			cell := fmt.Sprintf("%s/n=%d", topo, n)
			var dets []qos.DetectionStats
			var avgs, degs, msgs, bytes []float64
			for r := 0; r < opts.runs(); r++ {
				res := results[k]
				k++
				dets = append(dets, res.det)
				avgs = append(avgs, qos.Millis(res.det.Avg))
				degs = append(degs, res.avgDeg)
				m := float64(res.stats.Sent) / float64(n) / secs
				b := float64(res.stats.Bytes) / float64(n) / secs
				msgs = append(msgs, m)
				bytes = append(bytes, b)
				opts.sampleDetection(cell, "det", r, res.det)
				opts.sample(cell, "avg_degree", r, res.avgDeg)
				opts.sample(cell, "msgs_per_proc_s", r, m)
				opts.sample(cell, "bytes_per_proc_s", r, b)
			}
			t.AddRow(topo, strconv.Itoa(n),
				famCell("%.1f", "", degs),
				famMS(avgs), ms(aggregateDetection(dets).Max),
				famCell("%.1f", "", msgs),
				famCell("%.0f", "", bytes))
		}
	}
	return t, nil
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
	var jobs []func() (time.Duration, error)
	for _, kind := range kinds {
		kind := kind
		for r := 0; r < opts.runs(); r++ {
			seed := opts.seed() + int64(r)*101
			jobs = append(jobs, func() (time.Duration, error) {
				lat, err := scenarioConsensusLatency(sc, opts, kind, seed)
				if err != nil {
					return 0, fmt.Errorf("scenario %s: %w", sc.Name, err)
				}
				return lat, nil
			})
		}
	}
	lats, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, kind := range kinds {
		cell := fmt.Sprintf("consensus/%s", kind)
		var samples []float64
		for r := 0; r < opts.runs(); r++ {
			samples = append(samples, qos.Millis(lats[k]))
			opts.sample(cell, "decision_ms", r, qos.Millis(lats[k]))
			k++
		}
		t.AddRow(kind.String(), famMS(samples))
	}
	return t, nil
}
