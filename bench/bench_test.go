package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
	"asyncfd/internal/node"
	"asyncfd/internal/qos"
	"asyncfd/internal/scenario"
	"asyncfd/internal/tcpnet"
	"asyncfd/internal/trace"
)

// TestSmokeAllWorkloads runs all five workloads at smoke size, traced, and
// holds each to its own output checks (for the sim ones that includes two
// sweeps of one seed rendering the same bytes).
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, seconds: time.Second, trace: true, outDir: t.TempDir(), smoke: true}
			res, err := w.run(w.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed != 0 || res.attempted < 1 {
				t.Errorf("attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
			}
			for _, m := range catalog {
				if _, ok := res.values[m.name]; m.class == endToEnd && m.name != "peak_rss_mb" && !ok {
					t.Errorf("end-to-end metric %s not reported", m.name)
				}
			}
			if _, err := os.Stat(cfg.outDir + "/" + w.name + ".trace.json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCellsMakeTheWholeSweep holds the split a sweep is timed by to the
// engine's own sweep: run cell by cell, a scenario renders the same table and
// the same v2 rows as in one ScenarioTable call, and quietSum takes each
// cell's fastest time whichever sweep it is in.
func TestCellsMakeTheWholeSweep(t *testing.T) {
	for _, name := range []string{"sim_dense_mesh", "sim_sparse_topo", "sim_churn_family"} {
		data, err := files.ReadFile("workloads/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Parse(data, true)
		if err != nil {
			t.Fatal(err)
		}
		cells := cellsOf(sc)
		if len(cells) < 4 {
			t.Errorf("%s: %d cells, want one per table row", name, len(cells))
		}
		whole, err := runSweep([]*scenario.Scenario{sc}, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		split, err := runSweep(cells, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if split.digest != whole.digest || split.events != whole.events || len(split.wall) != len(cells) {
			t.Errorf("%s: cell by cell digest %s events %d, whole %s %d\n%s", name, split.digest, split.events, whole.digest, whole.events, split.text)
		}
	}
	sweeps := []*sweepOutput{{wall: []float64{3, 1, 5}}, {wall: []float64{2, 4, 4}}, {wall: []float64{1}, partial: true}}
	if got := quietSum(sweeps, func(sw *sweepOutput) []float64 { return sw.wall }); got != 1+1+4 {
		t.Errorf("quietSum = %v, want 6", got)
	}
}

func TestCoverCountsOverlapOnce(t *testing.T) {
	// Children [10,40] and [30,60] overlap by 10, [70,80] stands alone,
	// [75,78] lies inside it: the union is 50 + 10.
	c := cover{until: 0}
	for _, ch := range [][2]int64{{10, 40}, {30, 60}, {70, 80}, {75, 78}} {
		c.add(ch[0], ch[1])
	}
	if c.total != 60 || c.until != 80 {
		t.Errorf("cover = %+v, want total 60 until 80", c)
	}
}

func TestTracerSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer(1)
	tr.startRun()
	spin := func() {
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	}
	tr.in(layCell, func() {
		spin()
		tr.in(layDes, func() {
			for i := 0; i < 3; i++ {
				tr.in(layCore, func() {
					spin()
					tr.in(layNetsim, func() { tr.in(layDelay, spin) })
				})
			}
		})
	})
	var self int64
	for _, a := range tr.agg {
		self += a.self
	}
	if root := tr.agg[layCell].total; self != root {
		t.Errorf("self times sum to %d, root span is %d", self, root)
	}
	if a := tr.agg[layNetsim]; a.count != 3 || a.self < 0 || a.self > a.total {
		t.Errorf("netsim aggregate %+v", a)
	}
	if len(tr.spans) != 11 {
		t.Fatalf("%d spans kept, want 11", len(tr.spans))
	}
	for _, sp := range tr.spans {
		if sp.ID == 0 != (sp.Parent == -1) || sp.Parent >= sp.ID || sp.End < sp.Start {
			t.Errorf("span %+v", sp)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV int64
	}{
		{99, 0, 0},           // 9.9 samples beyond p90: too few for any
		{100, 0.90, 90},      // ten beyond p90
		{999, 0.90, 900},     // 9.99 beyond p99
		{1000, 0.99, 990},    // ten beyond p99
		{10000, 0.999, 9990}, // ten beyond p99.9
	} {
		q, v := tailQuantile(ramp(c.n))
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: tailQuantile = p%g %d, want p%g %d", c.n, 100*q, v, 100*c.wantQ, c.wantV)
		}
	}
	if got := quantile(ramp(1000), 0.5); got != 500 {
		t.Errorf("median of 1..1000 = %d, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for the same inputs.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1.2, 3.4, 2.2, 9, 5, 7.7, 3.3}, [3]float64{2.2, 3.4, 7.7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestSameSeedSameWorkload(t *testing.T) {
	a, b, c := newPlan(42, 512, 8), newPlan(42, 512, 8), newPlan(43, 512, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans of seed 42 differ")
	}
	if reflect.DeepEqual(a.killed, c.killed) || reflect.DeepEqual(a.senders[0].peers, c.senders[0].peers) {
		t.Error("seeds 42 and 43 gave the same plan")
	}
	if n := len(a.senders[0].peers) + len(a.senders[1].peers); n != 512 || len(a.killed) != 8 {
		t.Errorf("plan covers %d peers, kills %d", n, len(a.killed))
	}
	dues := func(pl *plan, burst bool) (out []int64) {
		s := &sender{senderPlan: pl.senders[0]}
		recs := s.schedule(200*time.Millisecond, 40*time.Millisecond, burst, map[ident.ID]bool{pl.killed[0]: true}, 100*time.Millisecond)
		for i := range recs {
			out = append(out, int64(recs[i].peer)<<40|recs[i].due)
		}
		return out
	}
	for _, burst := range []bool{false, true} {
		if !reflect.DeepEqual(dues(a, burst), dues(b, burst)) {
			t.Errorf("burst=%v: two schedules of seed 42 differ", burst)
		}
	}
	// Paced due times sit on the tick grid, in order, and a dead peer has
	// none from deadFrom on.
	s := &sender{senderPlan: a.senders[0]}
	dead := a.senders[0].peers[3]
	last := int64(-1)
	recs := s.schedule(200*time.Millisecond, 40*time.Millisecond, false, map[ident.ID]bool{dead: true}, 100*time.Millisecond)
	for i := range recs {
		rec := &recs[i]
		if rec.due%int64(tick) != 0 || rec.due < last || rec.due > int64(200*time.Millisecond) {
			t.Fatalf("due %v after %v", time.Duration(rec.due), time.Duration(last))
		}
		if rec.peer == dead && rec.due >= int64(100*time.Millisecond) {
			t.Fatalf("dead peer scheduled at %v", time.Duration(rec.due))
		}
		last = rec.due
	}
}

// stallOnce is an estimator whose first Observe after armed is set blocks
// its shard worker.
type stallOnce struct {
	liveshard.PeerEstimator
	stall time.Duration
	armed *atomic.Bool
}

func (s stallOnce) Observe(at time.Duration) {
	if s.armed.CompareAndSwap(true, false) {
		time.Sleep(s.stall)
	}
	s.PeerEstimator.Observe(at)
}

// TestOpenLoopTimesFromDueTime stalls the system under test and then the
// generator, and wants each to show up where it belongs — latency, and
// lateness — with the offered load unchanged both times.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	spec, err := liveSpecOf("live_hot_paced", true)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlan(1, spec.peers, 0)
	const stall = 60 * time.Millisecond
	interval, dur := spec.intervals[0], 300*time.Millisecond
	scheduled := 0
	for _, sp := range pl.senders {
		scheduled += len((&sender{senderPlan: sp}).schedule(dur, interval, false, nil, 0))
	}

	t.Run("stalled sink", func(t *testing.T) {
		// The stalling estimator is in place before the service starts; the
		// test only arms it, through an atomic, once set-up is over.
		var armed atomic.Bool
		spec := spec
		spec.wrapEstimator = func(id ident.ID, e liveshard.PeerEstimator) liveshard.PeerEstimator {
			if id != 0 {
				return e
			}
			return stallOnce{e, stall, &armed}
		}
		r, err := newRig(spec, pl)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		armed.Store(true)
		st := r.runStep(0, interval, dur, nil, 0, false, 0)
		st.sort()
		if st.offered != scheduled || st.folded != st.offered {
			t.Errorf("offered %d folded %d, scheduled %d: a stall must not lower the load", st.offered, st.folded, scheduled)
		}
		if got := time.Duration(st.latency[len(st.latency)-1]); got < stall {
			t.Errorf("worst latency %v, want at least the %v stall", got, stall)
		}
		if got := time.Duration(quantile(st.late, 0.5)); got > stall/4 {
			t.Errorf("median lateness %v: the generator must not wait for the sink", got)
		}
	})

	t.Run("stalled generator", func(t *testing.T) {
		tr, err := tcpnet.New(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Handler: node.HandlerFunc(func(ident.ID, any) {})})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		s := &sender{senderPlan: pl.senders[0], tr: tr, monitor: 0} // no such peer: Send drops
		recs := s.schedule(dur, interval, false, nil, 0)
		begin := time.Now()
		stalled := false
		clock := func() int64 {
			now := time.Since(begin)
			if !stalled && now > dur/2 {
				stalled = true
				time.Sleep(stall)
				now = time.Since(begin)
			}
			return int64(now)
		}
		s.offer(recs, 0, seqOf(0, 0, 0), clock, false)
		worst := time.Duration(0)
		for i := range recs {
			at := recs[i].sendAt.Load()
			if at == 0 {
				t.Fatalf("heartbeat %d of %d never offered", i, len(recs))
			}
			worst = max(worst, time.Duration(at-recs[i].due))
		}
		if worst < stall {
			t.Errorf("worst lateness %v, want at least the %v stall", worst, stall)
		}
		if took := time.Since(begin); took > dur+2*stall {
			t.Errorf("offer took %v for a %v schedule: late heartbeats must be sent at once, not re-paced", took, dur)
		}
	})
}

func TestFailedShareAccounting(t *testing.T) {
	spec, err := liveSpecOf("live_hot_paced", true)
	if err != nil {
		t.Fatal(err)
	}
	sec := time.Second
	monitor := ident.ID(spec.peers)
	// report judges a ladder whose reference step lost 3 heartbeats and
	// whose step 3 lost 100, with one kill missed; lateRef is the generator's
	// lateness on the reference step.
	report := func(lateRef time.Duration) *result {
		r := &rig{spec: spec, p: &probe{}, log: &trace.Log{}}
		lad := &ladderRun{dead: map[ident.ID]bool{5: true, 6: true}, killAt: 1500 * time.Millisecond, wall: 5 * sec}
		for i := range spec.intervals {
			lad.steps = append(lad.steps, &stepStats{interval: spec.intervals[i], start: time.Duration(i+1) * sec, wall: sec,
				offered: 1000, folded: 1000, latency: []int64{1e5}, late: []int64{1e4}})
		}
		lad.steps[0].folded, lad.steps[0].late = 997, []int64{int64(lateRef)}
		lad.steps[3].folded = 900
		for _, ev := range []trace.Event{
			{At: 500 * time.Millisecond, Observer: monitor, Subject: 8, Suspected: true}, // during set-up: not the ladder's
			{At: 600 * time.Millisecond, Observer: monitor, Subject: 8, Suspected: false},
			{At: 1200 * time.Millisecond, Observer: monitor, Subject: 9, Suspected: true}, // false, in the reference step
			{At: 1300 * time.Millisecond, Observer: monitor, Subject: 9, Suspected: false},
			{At: 1700 * time.Millisecond, Observer: monitor, Subject: 5, Suspected: true}, // true detection
			{At: 4200 * time.Millisecond, Observer: monitor, Subject: 3, Suspected: true}, // false, later
		} {
			r.log.Append(ev)
		}
		res := newResult("live_hot_paced", 1, false)
		lad.report(res, r, verdictRun{detectMS: []float64{200}, missed: 1, mistakes: qos.MistakeStats{}})
		return res
	}

	res := report(10 * time.Microsecond)
	if res.attempted != 1002 || res.failed != 5 {
		t.Errorf("reference step: attempted %d failed %d, want 1002 and 5 (three lost, one missed kill, one false suspicion)", res.attempted, res.failed)
	}
	if want := float64(3+100+1+2) / float64(5000+2); math.Abs(res.values["failed_share"]-want) > 1e-12 {
		t.Errorf("failed_share = %v, want %v", res.values["failed_share"], want)
	}
	if len(res.problems) != 3 {
		t.Errorf("problems %q, want the lost heartbeats, the missed kill and the false suspicion", res.problems)
	}
	if got, want := res.values["liveshard.max_ok_rate_hbps"], float64(spec.peers)/spec.intervals[4].Seconds(); got != want {
		t.Errorf("max ok rate %v, want %v: step 3 lost heartbeats, step 4 did not", got, want)
	}

	// The generator 30 ms late on the reference step: the step is void,
	// what it lost is reported in failed_share but only the missed kill
	// fails the run.
	res = report(30 * time.Millisecond)
	if res.attempted != 1002 || res.failed != 1 || len(res.problems) != 1 {
		t.Errorf("void reference step: attempted %d failed %d problems %q, want 1002, 1 and the missed kill", res.attempted, res.failed, res.problems)
	}
	if want := float64(3+100+1+2) / float64(5000+2); math.Abs(res.values["failed_share"]-want) > 1e-12 || res.values["gen.void_steps"] != 1 {
		t.Errorf("void reference step: failed_share = %v, want %v; void steps %v, want 1", res.values["failed_share"], want, res.values["gen.void_steps"])
	}
}

// TestResultLine checks the line the driver reads and that -repeat can read
// a run's printed metrics back.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult("sim_dense_mesh", 3, traced)
		res.set("setup_s", 0.125)
		res.set("work_wall_s", 3.5)
		res.set("verdict_s", 3.5)
		res.set("des.events", 1234567)
		res.attempted = 16
		var buf bytes.Buffer
		if err := res.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || !*line.Correct || *line.Attempted != 16 || *line.Failed != 0 {
			t.Errorf("traced=%v: line %s", traced, lines[len(lines)-1])
		}
		for _, m := range catalog {
			got, ok := line.Metrics[m.name]
			if want := (m.class == endToEnd) != traced; ok != want {
				t.Errorf("traced=%v: metric %s present=%v, want %v", traced, m.name, ok, want)
			} else if ok && (got.Unit != m.unit || got.Value == nil) {
				t.Errorf("traced=%v: metric %s = %+v", traced, m.name, got)
			}
		}
		back := parseMetrics(buf.String())
		if back["setup_s"] != 0.125 || back["verdict_s"] != 3.5 || back["des.events"] != 1234567 {
			t.Errorf("parseMetrics read back %v", back)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON holds BENCHMARK.json to the catalog.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var gated []string
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w.name)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the benchmark", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i] || w.Why == "" {
			t.Errorf("workload %d is %q, want %q with a why", i, w.Name, gated[i])
		}
	}
	var e2e, per []metricDef
	for _, m := range catalog {
		if m.class == endToEnd {
			e2e = append(e2e, m)
		} else {
			per = append(per, m)
		}
	}
	if len(doc.EndToEnd) != len(e2e) || len(doc.PerLayer) != len(per) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the catalog %d + %d", len(doc.EndToEnd), len(doc.PerLayer), len(e2e), len(per))
	}
	for i, m := range e2e {
		if got := doc.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, catalog has %+v", i, got, m)
		}
	}
	for i, m := range per {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, got, m)
		}
	}
}
