package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asyncfd/internal/scenario"
	"asyncfd/internal/stats"
)

func renderTable(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatalf("render %s: %v", tbl.ID, err)
	}
	return buf.String()
}

// TestBuiltinScenarioGolden is the differential bar of the embedded
// scenario documents: R1, R2, LT and E7 must render the tables committed
// under testdata/golden — captured from the hand-written Go experiments
// these documents replaced (fdbench -exp ID -seed 1 -repeat 3, with and
// without -quick, at the last commit that had them) — at every parallelism
// and in both replication modes, collecting the same v2 rows throughout. A
// document drift, an engine drift, or a scheduling nondeterminism all fail
// here. LT is held at quick size only: its full size is the nightly gate's.
// The remaining tables are Go experiments; their goldens (same command,
// frozen at the parent of the change that moved X1/X2 onto exp.Cluster and
// of the one that put every table body on the cell grid) hold the engine
// they share with the documents to the same bar. L1 and L5 are held at quick
// size only, like LT.
func TestBuiltinScenarioGolden(t *testing.T) {
	cases := []struct {
		golden  string
		builtin func(Options) (*Table, error)
		quick   bool
	}{
		{"r1_quick.txt", R1CrashRecovery, true},
		{"r1_full.txt", R1CrashRecovery, false},
		{"r2_quick.txt", R2PartitionHeal, true},
		{"r2_full.txt", R2PartitionHeal, false},
		{"e7_quick.txt", E7Consensus, true},
		{"e7_full.txt", E7Consensus, false},
		{"lt_quick.txt", LTTopologySweep, true},
		{"x1_quick.txt", X1DensityExt, true},
		{"x1_full.txt", X1DensityExt, false},
		{"x2_quick.txt", X2MobilityExt, true},
		{"x2_full.txt", X2MobilityExt, false},
		{"e1_quick.txt", E1DetectionVsN, true},
		{"e1_full.txt", E1DetectionVsN, false},
		{"e2_quick.txt", E2DetectionVsF, true},
		{"e2_full.txt", E2DetectionVsF, false},
		{"e3_quick.txt", E3Disturbance, true},
		{"e3_full.txt", E3Disturbance, false},
		{"e4_quick.txt", E4QoS, true},
		{"e4_full.txt", E4QoS, false},
		{"e5_quick.txt", E5MessageCost, true},
		{"e5_full.txt", E5MessageCost, false},
		{"e6_quick.txt", E6MPSensitivity, true},
		{"e6_full.txt", E6MPSensitivity, false},
		{"e8_quick.txt", E8Propagation, true},
		{"e8_full.txt", E8Propagation, false},
		{"a1_quick.txt", A1TagsAblation, true},
		{"a1_full.txt", A1TagsAblation, false},
		{"a2_quick.txt", A2WindowAblation, true},
		{"a2_full.txt", A2WindowAblation, false},
		{"l1_quick.txt", L1DetectionLargeN, true},
		{"l5_quick.txt", L5MessageCostLargeN, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var refRows []stats.Row
			for _, parallel := range []int{1, 8} {
				for _, fork := range []int{1, -1} {
					col := &stats.Collector{}
					got, err := tc.builtin(Options{
						Seed: 1, Repeat: 3, Quick: tc.quick, Parallel: parallel, serial: fork < 0, Samples: col,
					})
					if err != nil {
						t.Fatalf("parallel=%d fork=%d: %v", parallel, fork, err)
					}
					if render := renderTable(t, got); render != string(want) {
						t.Errorf("parallel=%d fork=%d: table differs from golden\n--- got\n%s--- want\n%s",
							parallel, fork, render, want)
					}
					rows := col.Rows()
					if len(rows) == 0 {
						t.Fatalf("parallel=%d fork=%d: no v2 rows collected", parallel, fork)
					}
					if refRows == nil {
						refRows = rows
					} else if !reflect.DeepEqual(rows, refRows) {
						t.Errorf("parallel=%d fork=%d: v2 rows differ from parallel=1 fork=1\ngot:  %+v\nwant: %+v",
							parallel, fork, rows, refRows)
					}
				}
			}
		})
	}
}

// TestBuiltinRegistry pins the registry the reports and goldens are keyed
// by: the same 17 ids in presentation order, each once, and every embedded
// scenario document parsing in both modes under the name of the registry
// entry it defines.
func TestBuiltinRegistry(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "A1", "A2", "R1", "R2", "X1", "X2", "L1", "L5", "LT"}
	var ids []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
		if seen[e.ID] {
			t.Errorf("registry lists %s twice", e.ID)
		}
		seen[e.ID] = true
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry ids = %v, want %v", ids, want)
	}
	files, err := builtinScenarios.ReadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := builtinScenarios.ReadFile("scenarios/" + f.Name())
		if err != nil {
			t.Fatal(err)
		}
		id := strings.ToUpper(strings.TrimSuffix(f.Name(), ".json"))
		if !seen[id] {
			t.Errorf("%s defines no registry entry", f.Name())
		}
		for _, quick := range []bool{false, true} {
			sc, err := scenario.Parse(data, quick)
			if err != nil {
				t.Errorf("%s (quick=%v): %v", f.Name(), quick, err)
				continue
			}
			if sc.Name != id {
				t.Errorf("%s (quick=%v): name %q, want %q", f.Name(), quick, sc.Name, id)
			}
		}
	}
}

// replayScenarioDoc exercises the trace-replay delay model inside the full
// engine: a synthetic heavy-tailed trace, a three-replicate family, one
// crash. Used by TestScenarioReplayForkDeterminism.
const replayScenarioDoc = `{
  "schema": "asyncfd-scenario/v1",
  "name": "replay-fork",
  "title": "trace replay under warm-fork replication",
  "repeat": 3,
  "cluster": {
    "n": 5, "f": 1,
    "detectors": ["async", "heartbeat"],
    "delay": {"model": "trace", "synthetic": {"seed": 42, "count": 400, "tick_us": 50000, "base_us": 800, "scale_us": 900, "alpha": 1.3, "cap_us": 60000, "loss": 0.02}}
  },
  "faults": {"events": [{"kind": "crash", "at_us": 10000000, "id": 4}]},
  "measure": {
    "program": "cluster",
    "warm_us": 9000000,
    "horizon_us": 25000000,
    "metrics": [{"kind": "detection", "name": "det", "victim": 4}],
    "columns": [
      {"header": "det avg", "metric": "det", "kind": "fam_ms"},
      {"header": "missing", "metric": "det", "kind": "missing"}
    ]
  }
}`

// TestScenarioReplayForkDeterminism pins the replay delay model to the
// engine's byte-identity contract: because Replay looks delays up as a pure
// function of (link, now) and draws nothing from the simulation RNG, a
// forked replicate — which restores the warm snapshot instead of re-running
// the warmup — must produce exactly the serial comparator's table and rows,
// at any worker count.
func TestScenarioReplayForkDeterminism(t *testing.T) {
	t.Parallel()
	sc, err := scenario.Parse([]byte(replayScenarioDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	var refRender string
	var refRows []stats.Row
	for i, mode := range []struct{ parallel, fork int }{
		{1, -1}, {1, 1}, {8, -1}, {8, 1},
	} {
		col := &stats.Collector{}
		tbl, err := ScenarioTable(sc, Options{Parallel: mode.parallel, serial: mode.fork < 0, Samples: col})
		if err != nil {
			t.Fatalf("parallel=%d fork=%d: %v", mode.parallel, mode.fork, err)
		}
		render := renderTable(t, tbl)
		rows := col.Rows()
		if i == 0 {
			refRender, refRows = render, rows
			continue
		}
		if render != refRender {
			t.Errorf("parallel=%d fork=%d: table differs from serial comparator\n--- got\n%s--- want\n%s",
				mode.parallel, mode.fork, render, refRender)
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Errorf("parallel=%d fork=%d: rows differ from serial comparator", mode.parallel, mode.fork)
		}
	}
}

// TestConsensusProgramHonoursStartJitter: the consensus program builds its
// cluster from the whole cluster section, like the cluster program — it used
// to start every detector within a hard-coded second. The shipped restart
// config (which, like e7.json, leaves the jitter at its default) keeps the
// table it always rendered; stretching the jitter changes it.
func TestConsensusProgramHonoursStartJitter(t *testing.T) {
	t.Parallel()
	doc, err := os.ReadFile(filepath.Join("..", "..", "configs", "e7_coordinator_restart.json"))
	if err != nil {
		t.Fatal(err)
	}
	latencies := func(doc string) []string {
		sc, err := scenario.Parse([]byte(doc), false)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := ScenarioTable(sc, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range tbl.Rows {
			out = append(out, row[1])
		}
		return out
	}
	want := []string{"386.8ms ±1641.0ms", "1665.1ms ±650.9ms", "2004.4ms ±1115.6ms", "1105.0ms ±464.5ms"}
	if got := latencies(string(doc)); !reflect.DeepEqual(got, want) {
		t.Errorf("default jitter: latencies %v, want %v", got, want)
	}
	stretched := strings.Replace(string(doc), `"n": 5,`, `"n": 5, "start_jitter_us": 4000000,`, 1)
	if stretched == string(doc) {
		t.Fatal("config has no cluster.n to hang the jitter on")
	}
	if got := latencies(stretched); reflect.DeepEqual(got, want) {
		t.Errorf("start_jitter_us 4s: latencies %v unchanged, the field is dropped", got)
	}
}

// TestScenarioCellMatchesTable: every cell ScenarioCell runs alone renders
// the row ScenarioTable renders for it at Repeat 1, cell for cell, for the
// R1 and R2 documents and two shipped configs, at two seeds and both sizes
// (a document without a quick overlay runs its full size twice). The
// cluster it hands back has run to the horizon.
func TestScenarioCellMatchesTable(t *testing.T) {
	t.Parallel()
	for _, path := range []string{
		filepath.Join("scenarios", "r1.json"),
		filepath.Join("scenarios", "r2.json"),
		filepath.Join("..", "..", "configs", "flapping_link_train.json"),
		filepath.Join("..", "..", "configs", "crash_burst_island.json"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, quick := range []bool{false, true} {
			sc, err := scenario.Parse(data, quick)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, seed := range []int64{1, 7} {
				opts := Options{Seed: seed, Repeat: 1}
				table, err := ScenarioTable(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				_, rows, _, err := scenarioClusterRows(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rows {
					key := r.cells[0].key
					cell, c, truth, err := ScenarioCell(sc, key, Options{Seed: seed})
					if err != nil {
						t.Fatalf("%s quick=%v seed %d cell %s: %v", path, quick, seed, key, err)
					}
					if !reflect.DeepEqual(cell.Rows, table.Rows[i:i+1]) {
						t.Errorf("%s quick=%v seed %d cell %s: row %q, table row %q", path, quick, seed, key, cell.Rows, table.Rows[i])
					}
					if truth == nil || c.Sim.Now() != sc.Measure.Horizon {
						t.Errorf("%s cell %s: cluster at %v, truth %v; want the horizon %v", path, key, c.Sim.Now(), truth, sc.Measure.Horizon)
					}
				}
				first, _, _, err := ScenarioCell(sc, "", Options{Seed: seed})
				if err != nil || !reflect.DeepEqual(first.Rows, table.Rows[:1]) {
					t.Errorf("%s: the empty key ran %v (err %v), want the first row %q", path, first, err, table.Rows[0])
				}
			}
		}
	}
}

// TestScenarioCellRefuses: a key naming no cell is refused with the list
// of cells, and a program without cells of its own is refused by name.
func TestScenarioCellRefuses(t *testing.T) {
	t.Parallel()
	parse := func(file string) *scenario.Scenario {
		data, err := builtinScenarios.ReadFile("scenarios/" + file)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Parse(data, true)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for _, tc := range []struct{ file, key, want string }{
		{"r1.json", "async", "cells: async/fresh, async/persisted, heartbeat/fresh"},
		{"r2.json", "async/fresh", `no cell "async/fresh" (cells: async, heartbeat, phi-accrual, chen-nfde)`},
		{"lt.json", "", "the topology program"},
		{"e7.json", "", "the consensus program"},
	} {
		_, _, _, err := ScenarioCell(parse(tc.file), tc.key, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s -cell %q: error %v, want it to contain %q", tc.file, tc.key, err, tc.want)
		}
	}
}

// TestScenarioNameListsMatchEngine holds internal/scenario's hand-mirrored
// detector list to the engine that resolves it: every DetectorNames entry
// maps through scenarioKinds onto AllKinds() in order, so a compiled
// scenario cannot name a detector the engine lacks. (Graph families have no
// mirror to hold: parser and engine both resolve them with topology.Family.)
func TestScenarioNameListsMatchEngine(t *testing.T) {
	kinds, err := scenarioKinds(&scenario.Scenario{Cluster: scenario.ClusterSpec{Detectors: scenario.DetectorNames}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kinds, AllKinds()) {
		t.Errorf("DetectorNames resolve to %v, want AllKinds() = %v", kinds, AllKinds())
	}
}
