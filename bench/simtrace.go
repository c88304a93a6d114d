package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"asyncfd/internal/chen"
	"asyncfd/internal/core"
	"asyncfd/internal/des"
	"asyncfd/internal/exp"
	"asyncfd/internal/faults"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/qos"
	"asyncfd/internal/scenario"
	"asyncfd/internal/stats"
	"asyncfd/internal/topology"
	"asyncfd/internal/trace"
	"asyncfd/internal/wire"
)

// The traced run rebuilds one cell at a time from the layers' public
// constructors, in the order internal/exp builds it, with a wrapper at each
// boundary the layers already accept: node.Handler, node.Env,
// netsim.DelayModel and fd.SuspicionSink. Nothing inside the layers is
// touched, so two costs land on the caller's side of a boundary: netsim's
// delivery closure runs under des dispatch (des.dispatch_self_s), and the
// kernel's enqueue runs under netsim's Send/Broadcast/After
// (netsim.admit_self_s).

// detector is what the replica needs from a detector runtime.
type detector interface {
	node.Handler
	Start()
	Restart(fresh bool)
}

var kindLayers = map[string]layer{
	"async": layCore, "heartbeat": layHeartbeat, "phi-accrual": layPhi, "chen-nfde": layChen,
}

// tracedEnv times a detector's calls into netsim and wraps the timer
// callbacks it arms in a span of the detector's own layer.
type tracedEnv struct {
	node.Env
	t     *tracer
	kind  layer
	sends *int64 // Send and Broadcast calls, for netsim.fanout_avg
}

func (e *tracedEnv) After(d time.Duration, fn func()) node.Timer {
	e.t.begin(layNetsim)
	tm := e.Env.After(d, func() { e.t.in(e.kind, fn) })
	e.t.end()
	return tm
}

func (e *tracedEnv) Send(to ident.ID, payload any) {
	*e.sends++
	e.t.begin(layNetsim)
	e.Env.Send(to, payload)
	e.t.end()
}

func (e *tracedEnv) Broadcast(payload any) {
	*e.sends++
	e.t.begin(layNetsim)
	e.Env.Broadcast(payload)
	e.t.end()
}

// tracedHandler is the node.Handler netsim delivers to.
type tracedHandler struct {
	t    *tracer
	kind layer
	sim  *des.Simulator
	max  *int // des.pending_max
	det  detector
}

func (h *tracedHandler) Deliver(from ident.ID, payload any) {
	if p := h.sim.Pending(); p > *h.max {
		*h.max = p
	}
	h.t.begin(h.kind)
	h.det.Deliver(from, payload)
	h.t.end()
}

type tracedDelay struct {
	inner netsim.DelayModel
	t     *tracer
}

func (d tracedDelay) Delay(r *rand.Rand, from, to ident.ID, now time.Duration) time.Duration {
	d.t.begin(layDelay)
	v := d.inner.Delay(r, from, to, now)
	d.t.end()
	return v
}

// tracedLoss keeps netsim's LossModel fast path for models that have one.
type tracedLoss struct {
	tracedDelay
	loss netsim.LossModel
}

func (d tracedLoss) DelayLoss(r *rand.Rand, from, to ident.ID, now time.Duration) (time.Duration, bool) {
	d.t.begin(layDelay)
	v, ok := d.loss.DelayLoss(r, from, to, now)
	d.t.end()
	return v, ok
}

func traceDelay(m netsim.DelayModel, t *tracer) netsim.DelayModel {
	td := tracedDelay{inner: m, t: t}
	if lm, ok := m.(netsim.LossModel); ok {
		return tracedLoss{tracedDelay: td, loss: lm}
	}
	return td
}

func traceSink(log *trace.Log, t *tracer) fd.SuspicionSink {
	return fd.SinkFunc(func(at time.Duration, observer, subject ident.ID, suspected bool) {
		t.begin(layTrace)
		log.OnSuspicion(at, observer, subject, suspected)
		t.end()
	})
}

// newDetector mirrors exp's node construction, defaults included.
func newDetector(env node.Env, id ident.ID, kind string, cl scenario.ClusterSpec, peers ident.Set, sink fd.SuspicionSink) (detector, error) {
	orDefault := func(d, def time.Duration) time.Duration {
		if d == 0 {
			return def
		}
		return d
	}
	hbInterval := orDefault(cl.HBInterval, time.Second)
	switch kind {
	case "async":
		return core.NewNode(env, core.NodeConfig{
			Detector: core.Config{Self: id, Membership: core.KnownMembership, N: cl.N, F: cl.F, DisableTags: cl.DisableTags},
			Window:   orDefault(cl.Window, time.Second), Interval: cl.Interval, Rebroadcast: cl.Rebroadcast, Sink: sink,
		})
	case "heartbeat":
		return heartbeat.NewNode(env, heartbeat.Config{Self: id, Peers: peers, Interval: hbInterval, Timeout: orDefault(cl.HBTimeout, 2*time.Second), Sink: sink})
	case "phi-accrual":
		return phiaccrual.NewNode(env, phiaccrual.Config{Self: id, Peers: peers, Interval: hbInterval, Threshold: cl.PhiThreshold, Sink: sink})
	case "chen-nfde":
		return chen.NewNode(env, chen.Config{Self: id, Peers: peers, Interval: hbInterval, Alpha: orDefault(cl.ChenAlpha, 300*time.Millisecond), Sink: sink})
	}
	return nil, fmt.Errorf("unknown detector %q", kind)
}

// replica is one traced cell under construction.
type replica struct {
	t       *tracer
	sim     *des.Simulator
	net     *netsim.Network
	log     *trace.Log
	dets    []detector
	sends   int64
	pending int
}

// newReplica builds kernel, network and one detector per process. peersOf
// gives each process's monitored set; with restrict set it is also the only
// traffic the network lets the process send (the topology program).
func (st *simTrace) newReplica(seed int64, kind string, cl scenario.ClusterSpec, n int, countBytes bool, peersOf func(ident.ID) ident.Set, restrict bool) (*replica, error) {
	r := &replica{t: st.t, sim: des.New(seed), log: &trace.Log{}}
	cfg := netsim.Config{Delay: traceDelay(cl.Delay, st.t)}
	if countBytes {
		cfg.SizeOf = wire.Size
	}
	r.net = netsim.New(r.sim, cfg)
	sink := traceSink(r.log, st.t)
	lay := kindLayers[kind]
	cl.N = n
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		h := &tracedHandler{t: st.t, kind: lay, sim: r.sim, max: &r.pending}
		env := &tracedEnv{Env: r.net.AddNode(id, h), t: st.t, kind: lay, sends: &r.sends}
		det, err := newDetector(env, id, kind, cl, peersOf(id), sink)
		if err != nil {
			return nil, err
		}
		h.det = det
		r.dets = append(r.dets, det)
		if restrict {
			r.net.SetNeighbors(id, peersOf(id))
		}
	}
	jitter := cl.StartJitter
	if jitter == 0 {
		jitter = time.Second
	}
	for _, det := range r.dets {
		det := det
		var at time.Duration
		if jitter > 0 {
			at = time.Duration(r.sim.Rand().Int63n(int64(jitter)))
		}
		r.sim.At(at, func() { st.t.in(lay, det.Start) })
	}
	return r, nil
}

// run advances the replica to the horizon under the des root span and
// folds its counters into the totals.
func (st *simTrace) run(r *replica, horizon time.Duration) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st.t.in(layDes, func() { r.sim.RunUntil(horizon) })
	runtime.ReadMemStats(&m1)
	st.mallocs += m1.Mallocs - m0.Mallocs
	st.events += int64(r.sim.Steps())
	st.traceEvents += int64(r.log.Len())
	ns := r.net.Stats()
	st.net.Sent += ns.Sent
	st.net.Delivered += ns.Delivered
	st.net.Dropped += ns.Dropped
	st.sends += r.sends
	if r.pending > st.pendingMax {
		st.pendingMax = r.pending
	}
}

// simTrace accumulates the traced run of one sim workload.
type simTrace struct {
	t           *tracer
	events      int64
	traceEvents int64
	mallocs     uint64
	net         netsim.Stats
	sends       int64
	pendingMax  int
	cells       int
	engineWall  time.Duration // the engine's untraced wall over the same cells
	tracedWall  time.Duration
}

// cellSamples are the v2 sample values one cell's first replicate yields,
// keyed like the engine's collector keys them.
type cellSamples map[string]float64

func (c cellSamples) detection(name string, s qos.DetectionStats) {
	c[name+"_avg_ms"] = qos.Millis(s.Avg)
	c[name+"_max_ms"] = qos.Millis(s.Max)
}

// clusterCell is the replica of one (detector, variant) cell of the
// cluster program.
func (st *simTrace) clusterCell(sc *scenario.Scenario, kind string, v scenario.Variant, seed int64) (cellSamples, int64, error) {
	cl := sc.Cluster
	members := ident.FullSet(cl.N)
	lay := kindLayers[kind]
	var r *replica
	var err error
	out := cellSamples{}
	st.t.begin(layCell)
	defer st.t.end()
	st.t.in(layExpBuild, func() {
		r, err = st.newReplica(seed, kind, cl, cl.N, cl.CountBytes, func(ident.ID) ident.Set { return members }, false)
	})
	if err != nil {
		return nil, 0, err
	}
	truth := v.Faults.ApplyFunc(r.sim, r.net, func(id ident.ID, fresh bool) {
		st.t.in(lay, func() { r.dets[id].Restart(fresh) })
	})
	st.run(r, sc.Measure.Horizon)
	st.t.in(layQos, func() {
		judge := qos.JudgeFrom(r.log)
		for _, m := range sc.Measure.Metrics {
			observers := members.Clone()
			observers.Remove(m.Victim)
			if len(m.Observers) > 0 {
				observers = ident.SetOf(m.Observers...)
			}
			switch m.Kind {
			case scenario.MetricDetection:
				out.detection(m.Name, judge.DetectionTimes(truth, m.Victim, observers))
			case scenario.MetricRedetection:
				out.detection(m.Name, judge.RedetectionTimes(truth, m.Victim, observers, m.Episode))
			case scenario.MetricTrustRestoration:
				out.detection(m.Name, judge.TrustRestorationTimes(truth, m.Victim, observers, m.Episode))
			case scenario.MetricStorm:
				out[m.Name] = float64(judge.MistakeStorm(truth, members, m.From, m.To))
			case scenario.MetricReconvergence:
				settle, clean := judge.Reconvergence(truth, members, m.After)
				out[m.Name] = qos.Millis(settle)
				out[m.CleanName] = 0
				if clean {
					out[m.CleanName] = 1
				}
			}
		}
	})
	return out, int64(r.sim.Steps()), nil
}

// graphOf mirrors the topology program's graph families, those the
// workloads use.
func graphOf(name string, n int, r *rand.Rand) (*topology.Graph, error) {
	switch name {
	case "grid":
		rows := 1
		for d := 1; d*d <= n; d++ {
			if n%d == 0 {
				rows = d
			}
		}
		return topology.Grid(rows, n/rows), nil
	case "scale-free":
		return topology.ScaleFree(r, n, 3), nil
	case "manet":
		const width, height, wantDeg = 1000.0, 1000.0, 8.0
		radius := math.Sqrt(wantDeg * width * height / (math.Pi * float64(n)))
		return topology.RandomGeometric(r, n, width, height, radius), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// topologyCell is the replica of one (topology, n) cell of the topology
// program: neighbour-local heartbeat, one crash.
func (st *simTrace) topologyCell(sc *scenario.Scenario, topo string, n int, seed int64) (cellSamples, int64, error) {
	var g *topology.Graph
	var r *replica
	var err error
	out := cellSamples{}
	st.t.begin(layCell)
	defer st.t.end()
	st.t.in(layTopology, func() {
		// The engine seeds a private generator with the cell's seed; a
		// fresh kernel's generator is the same stream.
		g, err = graphOf(topo, n, des.New(seed).Rand())
	})
	if err != nil {
		return nil, 0, err
	}
	degSum := 0
	for v := 0; v < n; v++ {
		degSum += g.Degree(ident.ID(v))
	}
	cl := scenario.ClusterSpec{Delay: sc.Cluster.Delay, HBInterval: sc.Measure.Interval, HBTimeout: sc.Measure.Timeout}
	st.t.in(layExpBuild, func() {
		r, err = st.newReplica(seed, "heartbeat", cl, n, true, g.Neighbors, true)
	})
	if err != nil {
		return nil, 0, err
	}
	victim := ident.ID(n - 1)
	for v := n / 2; v < n; v++ {
		if g.Degree(ident.ID(v)) > 0 {
			victim = ident.ID(v)
			break
		}
	}
	truth := faults.Schedule{}.CrashAt(victim, sc.Measure.CrashAt).Apply(r.sim, r.net)
	st.run(r, sc.Measure.Horizon)
	var det qos.DetectionStats
	st.t.in(layQos, func() {
		det = qos.JudgeFrom(r.log).DetectionTimes(truth, victim, g.Neighbors(victim))
	})
	if det.Missing > 0 {
		return nil, 0, fmt.Errorf("%s n=%d: %d neighbours never detected the crash", topo, n, det.Missing)
	}
	ns, secs := r.net.Stats(), sc.Measure.Horizon.Seconds()
	out.detection("det", det)
	out["avg_degree"] = float64(degSum) / float64(n)
	out["msgs_per_proc_s"] = float64(ns.Sent) / float64(n) / secs
	out["bytes_per_proc_s"] = float64(ns.Bytes) / float64(n) / secs
	return out, int64(r.sim.Steps()), nil
}

// engineCell runs the engine on sc narrowed to one cell and one replicate
// and returns its v2 sample means, event count and wall time.
func engineCell(sc *scenario.Scenario, seed int64) (cellSamples, int64, time.Duration, error) {
	st := &exp.EngineStats{}
	samples := &stats.Collector{}
	start := time.Now()
	if _, err := exp.ScenarioTable(sc, exp.Options{Seed: seed, Parallel: 1, Repeat: 1, Stats: st, Samples: samples}); err != nil {
		return nil, 0, 0, err
	}
	wall := time.Since(start)
	out := cellSamples{}
	for _, row := range samples.Rows() {
		out[row.Metric] = row.Mean
	}
	return out, st.Events.Load(), wall, nil
}

// compareCell checks a replica cell against the engine's: event counts
// within 1 %, every sample value equal. It returns the number of values
// that differ.
func compareCell(res *result, key string, got, want cellSamples, gotEvents, wantEvents int64) int {
	bad := 0
	if d := math.Abs(float64(gotEvents - wantEvents)); d > 0.01*float64(wantEvents) {
		res.problemf("%s: traced replica ran %d events, the engine %d", key, gotEvents, wantEvents)
		bad++
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok || g != want[name] {
			res.problemf("%s: %s is %v in the traced replica, %v in the engine", key, name, got[name], want[name])
			bad++
		}
	}
	return bad
}

// traceSim runs the traced replica of every cell's first replicate, checks
// each against the engine's own run of that cell, and reports the
// per-layer metrics and self-time shares.
func traceSim(sc *scenario.Scenario, cfg runConfig, res *result) error {
	type cell struct {
		key    string
		narrow scenario.Scenario
		run    func(st *simTrace) (cellSamples, int64, error)
	}
	var cells []cell
	switch sc.Measure.Program {
	case scenario.ProgramCluster:
		for _, kind := range sc.Cluster.Detectors {
			for _, v := range sc.Variants {
				kind, v := kind, v
				narrow := *sc
				narrow.Cluster.Detectors = []string{kind}
				narrow.Variants = []scenario.Variant{v}
				cells = append(cells, cell{cellKey(kind, v.Name), narrow, func(st *simTrace) (cellSamples, int64, error) {
					return st.clusterCell(sc, kind, v, cfg.seed)
				}})
			}
		}
	case scenario.ProgramTopology:
		for _, topo := range sc.Measure.Topologies {
			for _, n := range sc.Measure.Ns {
				topo, n := topo, n
				narrow := *sc
				narrow.Measure.Topologies = []string{topo}
				narrow.Measure.Ns = []int{n}
				cells = append(cells, cell{cellKey(topo, n), narrow, func(st *simTrace) (cellSamples, int64, error) {
					return st.topologyCell(sc, topo, n, cfg.seed)
				}})
			}
		}
	default:
		return fmt.Errorf("no traced replica for the %v program", sc.Measure.Program)
	}

	st := &simTrace{t: newTracer(len(cells)), cells: len(cells)}
	for _, c := range cells {
		want, wantEvents, wall, err := engineCell(&c.narrow, cfg.seed)
		if err != nil {
			return err
		}
		st.engineWall += wall
		st.t.startRun()
		start := time.Now()
		got, gotEvents, err := c.run(st)
		if err != nil {
			return err
		}
		st.tracedWall += time.Since(start)
		res.failed += compareCell(res, c.key, got, want, gotEvents, wantEvents)
		res.attempted += len(want) + 1
	}

	forks, snapMS, restoreMS, err := forkCost(sc, cfg.seed)
	if err != nil {
		return err
	}
	st.report(res, forks, snapMS, restoreMS)
	path, err := writeSpans(cfg.outDir, res.workload, st.t.spans)
	if err != nil {
		return err
	}
	res.notef("trace: %d spans kept of %d, written to %s", len(st.t.spans), st.spanCount(), path)
	return nil
}

// forkCost counts the Restores one sweep of sc makes and times
// Cluster.Snapshot and Cluster.Restore at the warm horizon of the first
// cell. Only the cluster program replicates through snapshots.
func forkCost(sc *scenario.Scenario, seed int64) (forks int, snapMS, restoreMS float64, err error) {
	if sc.Measure.Program != scenario.ProgramCluster || sc.Repeat < 2 {
		return 0, 0, 0, nil
	}
	forks = len(sc.Cluster.Detectors) * len(sc.Variants) * (sc.Repeat - 1)
	kinds := map[string]exp.Kind{"async": exp.KindAsync, "heartbeat": exp.KindHeartbeat, "phi-accrual": exp.KindPhi, "chen-nfde": exp.KindChen}
	cl := sc.Cluster
	c, err := exp.NewCluster(exp.ClusterConfig{
		Kind: kinds[cl.Detectors[0]], N: cl.N, F: cl.F, Seed: seed, Delay: cl.Delay,
		CountBytes: cl.CountBytes, StartJitter: cl.StartJitter,
		Window: cl.Window, Interval: cl.Interval, Rebroadcast: cl.Rebroadcast, DisableTags: cl.DisableTags,
		HBInterval: cl.HBInterval, HBTimeout: cl.HBTimeout, PhiThreshold: cl.PhiThreshold, ChenAlpha: cl.ChenAlpha,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	c.Apply(sc.Variants[0].Faults)
	c.RunUntil(sc.Measure.Warm)
	var snaps, restores []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		snap := c.Snapshot()
		mid := time.Now()
		c.Restore(snap)
		snaps = append(snaps, float64(mid.Sub(start))/1e6)
		restores = append(restores, float64(time.Since(mid))/1e6)
	}
	return forks, median(snaps), median(restores), nil
}

func (st *simTrace) spanCount() int64 {
	var n int64
	for _, a := range st.t.agg {
		n += a.count
	}
	return n
}

// report turns the accumulated spans and counters into per-layer metrics.
func (st *simTrace) report(res *result, forks int, snapMS, restoreMS float64) {
	agg := st.t.agg
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	res.set("topology.build_ms", per(agg[layTopology].total, agg[layTopology].count)/1e6)
	res.set("exp.build_ms", per(agg[layExpBuild].total, agg[layExpBuild].count)/1e6)
	res.set("exp.forks", float64(forks))
	res.set("exp.snapshot_ms", snapMS)
	res.set("exp.restore_ms", restoreMS)
	res.set("des.events", float64(st.events))
	res.set("des.dispatch_self_s", sec(agg[layDes].self))
	res.set("des.ns_per_event", per(agg[layDes].self, st.events))
	res.set("des.allocs_per_event", per(int64(st.mallocs), st.events))
	res.set("des.pending_max", float64(st.pendingMax))
	res.set("netsim.sent", float64(st.net.Sent))
	res.set("netsim.delivered", float64(st.net.Delivered))
	res.set("netsim.dropped", float64(st.net.Dropped))
	res.set("netsim.fanout_avg", per(st.net.Sent, st.sends))
	res.set("netsim.admit_self_s", sec(agg[layNetsim].self))
	res.set("netsim.ns_per_send", per(agg[layNetsim].self+agg[layDelay].self, st.net.Sent))
	res.set("netsim.delay_draw_s", sec(agg[layDelay].self))
	for _, l := range []layer{layCore, layHeartbeat, layPhi, layChen} {
		res.set(l.String()+".steps", float64(agg[l].count))
		res.set(l.String()+".step_self_s", sec(agg[l].self))
		res.set(l.String()+".ns_per_step", per(agg[l].self, agg[l].count))
	}
	res.set("trace.events", float64(st.traceEvents))
	res.set("trace.append_self_s", sec(agg[layTrace].self))
	res.set("trace.ns_per_append", per(agg[layTrace].self, agg[layTrace].count))
	res.set("qos.judge_s", sec(agg[layQos].total))
	res.set("qos.ns_per_event", per(agg[layQos].total, st.traceEvents))
	res.set("bench.trace_overhead", float64(st.tracedWall)/float64(st.engineWall))

	// Self times must account for the root spans: every nanosecond of a
	// cell belongs to exactly one layer.
	var selfSum int64
	for _, a := range agg {
		selfSum += a.self
	}
	root := agg[layCell].total
	if d := math.Abs(float64(selfSum-root)) / float64(root); d > 0.05 {
		res.problemf("layer self times sum to %v, the root spans to %v", time.Duration(selfSum), time.Duration(root))
	}

	// Shares of the traced cells' time, plus what one family's forking
	// costs per cell (one Snapshot and repeat-1 Restores, timed apart).
	fork := int64(0)
	if forks > 0 {
		fork = int64((snapMS*float64(st.cells) + restoreMS*float64(forks)) * 1e6)
	}
	total := float64(root + fork)
	res.notef("self-time shares of %d traced cells (%.3fs traced, %.3fs untraced by the engine):", st.cells, sec(root), st.engineWall.Seconds())
	for l := layer(0); l < numLayers; l++ {
		if agg[l].count > 0 {
			res.notef("  share %-13s %5.1f%%  (%d spans)", l.String(), 100*float64(agg[l].self)/total, agg[l].count)
		}
	}
	if forks > 0 {
		res.notef("  share %-13s %5.1f%%  (%d restores)", "exp.fork", 100*float64(fork)/total, forks)
	}
}
