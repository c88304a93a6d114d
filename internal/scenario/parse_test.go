package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/netsim"
	"asyncfd/internal/trace"
)

// clusterDoc is a complete, valid cluster-program scenario exercising
// variants, generators and every metric/column kind.
const clusterDoc = `{
  "schema": "asyncfd-scenario/v1",
  "name": "r1-like",
  "title": "crash-recovery demo",
  "note": "a note",
  "description": "docs",
  "repeat": 3,
  "cluster": {
    "n": 6,
    "f": 2,
    "detectors": ["async", "heartbeat"],
    "delay": {"model": "exponential", "min_us": 500, "mean_us": 700, "cap_us": 100000}
  },
  "faults": {
    "variant_header": "state",
    "variants": [
      {
        "name": "fresh",
        "events": [
          {"kind": "crash", "at_us": 10000000, "id": 5},
          {"kind": "recover", "at_us": 20000000, "id": 5, "fresh": true},
          {"kind": "crash", "at_us": 35000000, "id": 5}
        ]
      },
      {
        "name": "flappy",
        "events": [{"kind": "crash", "at_us": 10000000, "id": 5}],
        "generators": [
          {"kind": "flap", "islands": [[0, 1]], "at_us": 15000000, "down_us": 1000000, "period_us": 5000000, "count": 3}
        ]
      }
    ]
  },
  "measure": {
    "program": "cluster",
    "warm_us": 9000000,
    "horizon_us": 50000000,
    "metrics": [
      {"kind": "redetection", "name": "det1", "victim": 5},
      {"kind": "trust-restoration", "name": "restore", "victim": 5},
      {"kind": "redetection", "name": "det2", "victim": 5, "episode": 1},
      {"kind": "storm", "name": "storm", "from_us": 20000000, "to_us": 35000000},
      {"kind": "reconvergence", "name": "settle", "after_us": 30000000}
    ],
    "columns": [
      {"header": "det#1 avg", "metric": "det1", "kind": "fam_ms"},
      {"header": "det#2 max", "metric": "det2", "kind": "max_ms"},
      {"header": "det#2 missing", "metric": "det2", "kind": "missing"},
      {"header": "storm", "metric": "storm", "kind": "fam", "format": "%.2f"},
      {"header": "settle avg", "metric": "settle", "kind": "fam_ms"},
      {"header": "clean runs", "metric": "clean", "kind": "ratio"}
    ]
  },
  "quick": {
    "title": "crash-recovery demo (quick)",
    "repeat": 1
  }
}`

func TestParseClusterScenario(t *testing.T) {
	sc, err := Parse([]byte(clusterDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "r1-like" || sc.Title != "crash-recovery demo" || sc.Repeat != 3 {
		t.Errorf("header fields wrong: %+v", sc)
	}
	if sc.Cluster.N != 6 || sc.Cluster.F != 2 {
		t.Errorf("cluster size wrong: %+v", sc.Cluster)
	}
	exp, ok := sc.Cluster.Delay.(netsim.Exponential)
	if !ok {
		t.Fatalf("delay model %T, want Exponential", sc.Cluster.Delay)
	}
	if exp.Min != 500*time.Microsecond || exp.Mean != 700*time.Microsecond || exp.Cap != 100*time.Millisecond {
		t.Errorf("delay params wrong: %+v", exp)
	}
	if sc.Measure.Program != ProgramCluster {
		t.Errorf("program = %v", sc.Measure.Program)
	}
	if sc.Measure.Warm != 9*time.Second || sc.Measure.Horizon != 50*time.Second {
		t.Errorf("warm/horizon wrong: %v/%v", sc.Measure.Warm, sc.Measure.Horizon)
	}
	if sc.VariantHeader != "state" || len(sc.Variants) != 2 {
		t.Fatalf("variants wrong: header=%q n=%d", sc.VariantHeader, len(sc.Variants))
	}
	if sc.Variants[0].Name != "fresh" || len(sc.Variants[0].Faults) != 3 {
		t.Errorf("variant 0 wrong: %+v", sc.Variants[0])
	}
	// The flap generator expands to 3 partition/heal pairs after the crash.
	flappy := sc.Variants[1].Faults
	if len(flappy) != 1+6 {
		t.Fatalf("flappy schedule has %d events, want 7", len(flappy))
	}
	if flappy[1].Kind != faults.KindPartition || flappy[1].At != 15*time.Second {
		t.Errorf("first flap event wrong: %+v", flappy[1])
	}
	if flappy[2].Kind != faults.KindHeal || flappy[2].At != 16*time.Second {
		t.Errorf("first heal wrong: %+v", flappy[2])
	}
	if flappy[5].Kind != faults.KindPartition || flappy[5].At != 25*time.Second {
		t.Errorf("last flap event wrong: %+v", flappy[5])
	}
	if len(sc.Measure.Metrics) != 5 || len(sc.Measure.Columns) != 6 {
		t.Fatalf("metrics/columns: %d/%d", len(sc.Measure.Metrics), len(sc.Measure.Columns))
	}
	if m := sc.Measure.Metrics[2]; m.Kind != MetricRedetection || m.Episode != 1 || m.Victim != 5 {
		t.Errorf("det2 metric wrong: %+v", m)
	}
	if c := sc.Measure.Columns[3]; c.Kind != ColFam || c.Format != "%.2f" {
		t.Errorf("storm column wrong: %+v", c)
	}
	if c := sc.Measure.Columns[5]; c.Kind != ColRatio || c.Metric != "clean" {
		t.Errorf("clean column wrong: %+v", c)
	}
}

func TestParseQuickOverlay(t *testing.T) {
	sc, err := Parse([]byte(clusterDoc), true)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Title != "crash-recovery demo (quick)" {
		t.Errorf("quick title not applied: %q", sc.Title)
	}
	if sc.Repeat != 1 {
		t.Errorf("quick repeat not applied: %d", sc.Repeat)
	}
	// Unreplaced sections carry over.
	if sc.Cluster.N != 6 || len(sc.Variants) != 2 {
		t.Errorf("full sections should carry over: n=%d variants=%d", sc.Cluster.N, len(sc.Variants))
	}
}

// topoDoc is a valid topology-program scenario.
const topoDoc = `{
  "schema": "asyncfd-scenario/v1",
  "name": "lt-like",
  "title": "topology sweep",
  "cluster": {
    "detectors": ["heartbeat"],
    "delay": {"model": "constant", "d_us": 1000}
  },
  "measure": {
    "program": "topology",
    "horizon_us": 30000000,
    "topologies": ["ring", "grid"],
    "ns": [48, 96],
    "crash_at_us": 10400000
  }
}`

func TestParseTopologyScenario(t *testing.T) {
	sc, err := Parse([]byte(topoDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Measure.Program != ProgramTopology {
		t.Fatalf("program = %v", sc.Measure.Program)
	}
	if len(sc.Measure.Topologies) != 2 || len(sc.Measure.Ns) != 2 {
		t.Errorf("sweep axes wrong: %+v", sc.Measure)
	}
	if sc.Measure.Interval != time.Second || sc.Measure.Timeout != 2*time.Second {
		t.Errorf("heartbeat defaults wrong: %v/%v", sc.Measure.Interval, sc.Measure.Timeout)
	}
	if sc.Measure.CrashAt != 10400*time.Millisecond {
		t.Errorf("crash_at wrong: %v", sc.Measure.CrashAt)
	}
	if len(sc.Variants) != 1 || sc.Variants[0].Name != "" || len(sc.Variants[0].Faults) != 0 {
		t.Errorf("topology variants wrong: %+v", sc.Variants)
	}
}

// consensusDoc is a valid consensus-program scenario.
const consensusDoc = `{
  "schema": "asyncfd-scenario/v1",
  "name": "e7-like",
  "title": "consensus bridge",
  "cluster": {
    "n": 5,
    "f": 2,
    "detectors": ["async", "heartbeat", "phi-accrual", "chen-nfde"],
    "delay": {"model": "exponential", "min_us": 500, "mean_us": 700, "cap_us": 100000}
  },
  "faults": {
    "events": [{"kind": "crash", "at_us": 5001000, "id": 0}]
  },
  "measure": {
    "program": "consensus",
    "horizon_us": 120000000,
    "propose_us": 5000000
  }
}`

func TestParseConsensusScenario(t *testing.T) {
	sc, err := Parse([]byte(consensusDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Measure.Program != ProgramConsensus {
		t.Fatalf("program = %v", sc.Measure.Program)
	}
	if sc.Measure.Propose != 5*time.Second || sc.Measure.Horizon != 120*time.Second {
		t.Errorf("propose/horizon wrong: %v/%v", sc.Measure.Propose, sc.Measure.Horizon)
	}
	if len(sc.Variants) != 1 || len(sc.Variants[0].Faults) != 1 {
		t.Errorf("consensus variants wrong: %+v", sc.Variants)
	}
}

func TestParseTraceDelay(t *testing.T) {
	doc := `{
	  "schema": "asyncfd-scenario/v1",
	  "name": "trace-demo",
	  "title": "trace replay",
	  "cluster": {
	    "n": 4, "f": 1, "detectors": ["heartbeat"],
	    "delay": {"model": "trace", "synthetic": {"seed": 7, "count": 100, "tick_us": 50000, "base_us": 1000, "scale_us": 2000, "alpha": 1.2, "cap_us": 80000, "loss": 0.05}}
	  },
	  "measure": {
	    "program": "cluster", "horizon_us": 30000000,
	    "metrics": [{"kind": "detection", "name": "det", "victim": 3}],
	    "columns": [{"header": "det avg", "metric": "det", "kind": "fam_ms"}]
	  },
	  "faults": {"events": [{"kind": "crash", "at_us": 10000000, "id": 3}]}
	}`
	sc, err := Parse([]byte(doc), false)
	if err != nil {
		t.Fatal(err)
	}
	series, err := trace.Synthetic(trace.SyntheticConfig{
		Seed: 7, Count: 100, Tick: 50 * time.Millisecond, Base: time.Millisecond,
		Scale: 2 * time.Millisecond, Alpha: 1.2, Cap: 80 * time.Millisecond, LossRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := netsim.NewReplay(series, 4); !reflect.DeepEqual(sc.Cluster.Delay, want) {
		t.Errorf("synthetic replay = %+v, want %+v", sc.Cluster.Delay, want)
	}
	// Inline series form.
	const inline = `{"schema": "asyncfd-trace/v1", "span_us": 2000000, "samples": [{"at_us": 0, "rtt_us": 1400}, {"at_us": 1000000, "rtt_us": 2600, "loss": true}]}`
	doc2 := strings.Replace(doc,
		`{"model": "trace", "synthetic": {"seed": 7, "count": 100, "tick_us": 50000, "base_us": 1000, "scale_us": 2000, "alpha": 1.2, "cap_us": 80000, "loss": 0.05}}`,
		`{"model": "trace", "series": `+inline+`}`, 1)
	sc2, err := Parse([]byte(doc2), false)
	if err != nil {
		t.Fatal(err)
	}
	series2, err := trace.ParseDelaySeries([]byte(inline))
	if err != nil {
		t.Fatal(err)
	}
	if want := netsim.NewReplay(series2, 4); !reflect.DeepEqual(sc2.Cluster.Delay, want) {
		t.Errorf("inline replay = %+v, want %+v", sc2.Cluster.Delay, want)
	}
}

func TestParseUniformCrashesGenerator(t *testing.T) {
	doc := `{
	  "schema": "asyncfd-scenario/v1",
	  "name": "uniform-demo",
	  "title": "uniform crashes",
	  "cluster": {"n": 8, "f": 3, "detectors": ["async"], "delay": {"model": "constant", "d_us": 700}},
	  "faults": {"generators": [{"kind": "uniform-crashes", "seed": 11, "count": 3, "candidates": [1, 2, 3, 4, 5, 6], "start_us": 10000000, "end_us": 40000000}]},
	  "measure": {
	    "program": "cluster", "horizon_us": 60000000,
	    "metrics": [{"kind": "storm", "name": "storm", "from_us": 0, "to_us": 60000000}],
	    "columns": [{"header": "storm", "metric": "storm", "kind": "fam"}]
	  }
	}`
	a, err := Parse([]byte(doc), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(doc), false)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Variants[0].Faults, b.Variants[0].Faults
	if len(fa) != 3 {
		t.Fatalf("uniform-crashes expanded to %d events, want 3", len(fa))
	}
	for i := range fa {
		if fa[i].At != fb[i].At || fa[i].Kind != fb[i].Kind || fa[i].ID != fb[i].ID {
			t.Errorf("event %d differs across parses: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	// Evenly spaced over [start_us, end_us], both ends included.
	for i, want := range []time.Duration{10 * time.Second, 25 * time.Second, 40 * time.Second} {
		if fa[i].At != want {
			t.Errorf("crash %d at %v, want %v", i, fa[i].At, want)
		}
	}
}

// TestParseErrors drives the diagnostic contract: each malformed document
// fails with an error mentioning the offending field path.
func TestParseErrors(t *testing.T) {
	valid := func(mutate func(s string) string) string { return mutate(clusterDoc) }
	repl := func(old, new string) func(string) string {
		return func(s string) string {
			if !strings.Contains(s, old) {
				t.Fatalf("mutation target %q not in document", old)
			}
			return strings.Replace(s, old, new, 1)
		}
	}
	cases := []errCase{
		{"not json", "{", "scenario:"},
		{"wrong schema", valid(repl(`"asyncfd-scenario/v1"`, `"asyncfd-scenario/v9"`)), "unknown schema version"},
		{"missing schema", `{"name": "x"}`, "unknown schema version"},
		{"unknown top field", valid(repl(`"name":`, `"bogus": 1, "name":`)), "bogus"},
		{"retired ci key", valid(repl(`"name":`, `"ci": true, "name":`)), `unknown field "ci"`},
		{"missing name", valid(repl(`"name": "r1-like",`, ``)), "name: required"},
		{"bad name chars", valid(repl(`"name": "r1-like"`, `"name": "r1 like"`)), "name:"},
		{"missing title", valid(repl(`"title": "crash-recovery demo",`, ``)), "title: required"},
		{"negative repeat", valid(repl(`"repeat": 3`, `"repeat": -1`)), "repeat:"},
		{"n too small", valid(repl(`"n": 6`, `"n": 1`)), "cluster.n:"},
		{"f out of range", valid(repl(`"f": 2`, `"f": 6`)), "cluster.f:"},
		{"unknown detector", valid(repl(`"detectors": ["async", "heartbeat"]`, `"detectors": ["async", "gossip"]`)), "cluster.detectors[1]"},
		{"duplicate detector", valid(repl(`"detectors": ["async", "heartbeat"]`, `"detectors": ["async", "async"]`)), "duplicate detector"},
		{"no delay model", valid(repl(`"delay": {"model": "exponential", "min_us": 500, "mean_us": 700, "cap_us": 100000}`, `"delay": {}`)), "cluster.delay.model"},
		{"unknown delay model", valid(repl(`"model": "exponential"`, `"model": "gaussian"`)), "unknown delay model"},
		{"negative delay field", valid(repl(`"min_us": 500`, `"min_us": -500`)), "min_us"},
		{"unknown event kind", valid(repl(`{"kind": "crash", "at_us": 10000000, "id": 5},`, `{"kind": "melt", "at_us": 10000000, "id": 5},`)), "unknown event kind"},
		{"event id out of range", valid(repl(`{"kind": "crash", "at_us": 10000000, "id": 5},`, `{"kind": "crash", "at_us": 10000000, "id": 9},`)), "outside [0, n=6)"},
		{"double crash", valid(repl(`{"kind": "recover", "at_us": 20000000, "id": 5, "fresh": true},`, `{"kind": "crash", "at_us": 20000000, "id": 5},`)), "already down"},
		{"recover without crash", valid(repl(`{"kind": "crash", "at_us": 10000000, "id": 5},
          {"kind": "recover", "at_us": 20000000, "id": 5, "fresh": true},`, `{"kind": "recover", "at_us": 20000000, "id": 5, "fresh": true},`)), "without a preceding crash"},
		{"event past horizon", valid(repl(`{"kind": "crash", "at_us": 35000000, "id": 5}`, `{"kind": "crash", "at_us": 55000000, "id": 5}`)), "does not precede the horizon"},
		{"island overlap", valid(repl(`"islands": [[0, 1]]`, `"islands": [[0, 1], [1, 2]]`)), "two islands"},
		{"empty island", valid(repl(`"islands": [[0, 1]]`, `"islands": [[]]`)), "must not be empty"},
		{"heal without partition", valid(repl(`"generators": [
          {"kind": "flap", "islands": [[0, 1]], "at_us": 15000000, "down_us": 1000000, "period_us": 5000000, "count": 3}
        ]`, `"events2": []`)), ""},
		{"flap period too small", valid(repl(`"period_us": 5000000`, `"period_us": 500000`)), "period_us"},
		{"flap count zero", valid(repl(`"count": 3`, `"count": 0`)), "count:"},
		{"duplicate variant", valid(repl(`"name": "flappy"`, `"name": "fresh"`)), "duplicate variant"},
		{"variant header missing", valid(repl(`"variant_header": "state",`, ``)), "variant_header"},
		{"no program", valid(repl(`"program": "cluster"`, `"program": ""`)), "measure.program"},
		{"unknown program", valid(repl(`"program": "cluster"`, `"program": "mesh"`)), "unknown program"},
		{"warm past horizon", valid(repl(`"warm_us": 9000000`, `"warm_us": 50000000`)), "horizon_us"},
		{"no metrics", valid(repl(`"metrics": [
      {"kind": "redetection", "name": "det1", "victim": 5},
      {"kind": "trust-restoration", "name": "restore", "victim": 5},
      {"kind": "redetection", "name": "det2", "victim": 5, "episode": 1},
      {"kind": "storm", "name": "storm", "from_us": 20000000, "to_us": 35000000},
      {"kind": "reconvergence", "name": "settle", "after_us": 30000000}
    ],`, `"metrics": [],`)), "measure.metrics"},
		{"unknown metric kind", valid(repl(`{"kind": "storm", "name": "storm"`, `{"kind": "blizzard", "name": "storm"`)), "unknown metric kind"},
		{"duplicate metric name", valid(repl(`"name": "det2"`, `"name": "det1"`)), "duplicate metric name"},
		{"metric victim range", valid(repl(`{"kind": "redetection", "name": "det1", "victim": 5}`, `{"kind": "redetection", "name": "det1", "victim": 6}`)), "victim"},
		{"storm inverted window", valid(repl(`"from_us": 20000000, "to_us": 35000000`, `"from_us": 35000000, "to_us": 20000000`)), "to_us"},
		{"column unknown metric", valid(repl(`"metric": "storm", "kind": "fam"`, `"metric": "blizzard", "kind": "fam"`)), "unknown metric"},
		{"column kind mismatch", valid(repl(`{"header": "storm", "metric": "storm", "kind": "fam", "format": "%.2f"}`, `{"header": "storm", "metric": "storm", "kind": "fam_ms"}`)), "fam_ms needs"},
		{"column bad format", valid(repl(`"format": "%.2f"`, `"format": "%d"`)), "unsupported format"},
		{"format on non-fam", valid(repl(`{"header": "det#2 max", "metric": "det2", "kind": "max_ms"}`, `{"header": "det#2 max", "metric": "det2", "kind": "max_ms", "format": "%.1f"}`)), "only fam columns"},
		{"trailing data", clusterDoc + "{}", "after top-level value"},
		{"topology with cluster n", strings.Replace(topoDoc, `"detectors": ["heartbeat"],`, `"n": 8, "detectors": ["heartbeat"],`, 1), "cluster.n"},
		{"topology wrong detectors", strings.Replace(topoDoc, `["heartbeat"]`, `["async"]`, 1), "cluster.detectors"},
		{"topology unknown family", strings.Replace(topoDoc, `["ring", "grid"]`, `["ring", "hypercube"]`, 1), "unknown topology"},
		{"topology ns range", strings.Replace(topoDoc, `"ns": [48, 96]`, `"ns": [48, 2]`, 1), "measure.ns[1]"},
		{"topology crash past horizon", strings.Replace(topoDoc, `"crash_at_us": 10400000`, `"crash_at_us": 31000000`, 1), "crash_at_us"},
		{"consensus propose missing", strings.Replace(consensusDoc, `"propose_us": 5000000`, `"propose_us": 0`, 1), "propose_us"},
		{"consensus n vs f", strings.Replace(consensusDoc, `"n": 5`, `"n": 4`, 1), "2f+1"},
		{"consensus all crash", strings.Replace(consensusDoc,
			`"events": [{"kind": "crash", "at_us": 5001000, "id": 0}]`,
			`"events": [{"kind": "crash", "at_us": 5001000, "id": 0}, {"kind": "crash", "at_us": 6000000, "id": 1}, {"kind": "crash", "at_us": 7000000, "id": 2}, {"kind": "crash", "at_us": 8000000, "id": 3}, {"kind": "crash", "at_us": 9000000, "id": 4}]`, 1), "survivor"},
	}
	cases = append(cases, ruleCases()...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "heal without partition" {
				// Built directly: a bare heal with no matching partition.
				tc.doc = `{
				  "schema": "asyncfd-scenario/v1", "name": "x", "title": "t",
				  "cluster": {"n": 4, "f": 1, "detectors": ["async"], "delay": {"model": "constant", "d_us": 700}},
				  "faults": {"events": [{"kind": "heal", "at_us": 5000000}]},
				  "measure": {"program": "cluster", "horizon_us": 10000000,
				    "metrics": [{"kind": "storm", "name": "s", "from_us": 0, "to_us": 10000000}],
				    "columns": [{"header": "s", "metric": "s", "kind": "fam"}]}
				}`
				tc.want = "without an active partition"
			}
			_, err := Parse([]byte(tc.doc), false)
			if err == nil {
				t.Fatal("Parse accepted a malformed document")
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Errorf("error missing scenario prefix: %v", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestStrictUnmarshalTrailingData pins the trailing-data rule on the
// decoder itself (Parse's loose schema probe shields it from whole
// documents): anything after the one JSON value is an error, including the
// closing brackets json.Decoder.More stops at.
func TestStrictUnmarshalTrailingData(t *testing.T) {
	for _, tail := range []string{"{}", " ]] junk", "}", "]", ",", " 1", "x"} {
		var v struct {
			N int `json:"n"`
		}
		if err := strictUnmarshal([]byte(`{"n": 1}`+tail), &v); err == nil {
			t.Errorf("accepted %q after the document", tail)
		}
	}
	var v struct {
		N int `json:"n"`
	}
	if err := strictUnmarshal([]byte(`{"n": 1}`+" \n\t"), &v); err != nil || v.N != 1 {
		t.Errorf("trailing whitespace: n=%d err=%v", v.N, err)
	}
}

// TestFailedCheckStopsExpansion is the obligation the first-error-wins
// cursor leaves behind: compile functions keep running after a failed check,
// so a step that expands its input must not run on unchecked values. The
// flap loop is bounded by nothing but the count check; were it to run here
// it would never return (testdata/fuzz carries the same document).
func TestFailedCheckStopsExpansion(t *testing.T) {
	doc := swap(miniDoc, miniFaults, `{"generators": [{"kind": "flap", "islands": [[0]], "at_us": 1000,
	  "down_us": 10, "period_us": -20, "count": 4611686018427387904}]}`)
	_, err := Parse([]byte(doc), false)
	if err == nil || !strings.Contains(err.Error(), "scenario: faults.generators[0].period_us:") {
		t.Errorf("err = %v, want the period_us diagnostic", err)
	}
}

// TestIslandsCoveringEveryProcessCut: a partition whose islands together
// list all n processes still cuts them apart; only one island of all n
// (TestParseErrors' "cuts no one" cases) drops nothing.
func TestIslandsCoveringEveryProcessCut(t *testing.T) {
	doc := swap(miniDoc, miniEvents, `[{"kind": "partition", "at_us": 1, "islands": [[0, 1], [2, 3]]}]`)
	if _, err := Parse([]byte(doc), false); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledKindIsItsTag compiles, for every alternative of the programs,
// events, metrics and columns unions, a minimal document that uses it, and
// checks that the compiled kind is the alternative's own tag: a union row
// that pairs a tag with another kind's decoder fails here. An alternative
// added without a document here fails too.
func TestCompiledKindIsItsTag(t *testing.T) {
	parse := func(t *testing.T, doc string) *Scenario {
		t.Helper()
		sc, err := Parse([]byte(doc), false)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	programDocs := map[string]string{"cluster": miniDoc, "topology": topoDoc, "consensus": consensusDoc}
	for _, alt := range programs.alts {
		t.Run("program "+alt.tag, func(t *testing.T) {
			if got := parse(t, programDocs[alt.tag]).Measure.Program; got != Program(alt.tag) {
				t.Errorf("compiled program %q", got)
			}
		})
	}
	// The event of the alternative comes last in its list.
	const crash, part = `{"kind": "crash", "at_us": 1000000, "id": 3}`, `{"kind": "partition", "at_us": 1, "islands": [[0]]}`
	eventLists := map[string]string{
		"crash":     `[` + crash + `]`,
		"recover":   `[` + crash + `, {"kind": "recover", "at_us": 2000000, "id": 3}]`,
		"partition": `[` + part + `]`,
		"heal":      `[` + part + `, {"kind": "heal", "at_us": 2}]`,
	}
	for _, alt := range eventKinds.alts {
		t.Run("event "+alt.tag, func(t *testing.T) {
			list, ok := eventLists[alt.tag]
			if !ok {
				t.Fatal("no event list")
			}
			sched := parse(t, swap(miniDoc, miniEvents, list)).Variants[0].Faults
			if got := sched[len(sched)-1].Kind; got != faults.EventKind(alt.tag) {
				t.Errorf("compiled event kind %q", got)
			}
		})
	}
	// The alternative's metric is named "probe", next to miniDoc's own.
	probes := map[string]string{
		"detection":         `{"kind": "detection", "name": "probe", "victim": 3}`,
		"redetection":       `{"kind": "redetection", "name": "probe", "victim": 3}`,
		"trust-restoration": `{"kind": "trust-restoration", "name": "probe", "victim": 3}`,
		"storm":             `{"kind": "storm", "name": "probe", "from_us": 0, "to_us": 1}`,
		"reconvergence":     `{"kind": "reconvergence", "name": "probe", "after_us": 1, "clean_name": "probe_clean"}`,
	}
	for _, alt := range metricKinds.alts {
		t.Run("metric "+alt.tag, func(t *testing.T) {
			probe, ok := probes[alt.tag]
			if !ok {
				t.Fatal("no metric")
			}
			for _, m := range parse(t, swap(miniDoc, miniDet, miniDet+", "+probe)).Measure.Metrics {
				if m.Name == "probe" && m.Kind != MetricKind(alt.tag) {
					t.Errorf("compiled metric kind %q", m.Kind)
				}
			}
		})
	}
	// The alternative's column is headed "probe" and folds a metric of
	// miniDoc's that the kind accepts.
	folds := map[string]string{"fam_ms": "det", "max_ms": "settle", "missing": "det", "fam": "s", "ratio": "clean"}
	for _, alt := range columnKinds.alts {
		t.Run("column "+alt.tag, func(t *testing.T) {
			metric, ok := folds[alt.tag]
			if !ok {
				t.Fatal("no metric to fold")
			}
			probe := `{"header": "probe", "metric": "` + metric + `", "kind": "` + alt.tag + `"}`
			for _, c := range parse(t, swap(miniDoc, miniColumn, miniColumn+", "+probe)).Measure.Columns {
				if c.Header == "probe" && c.Kind != ColumnKind(alt.tag) {
					t.Errorf("compiled column kind %q", c.Kind)
				}
			}
		})
	}
}
