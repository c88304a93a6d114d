package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunErrorPaths covers the CLI failure modes: each must surface an
// error instead of silently doing nothing (or worse, writing a bogus
// report).
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown experiment", []string{"-quick", "-exp", "E99"}, "unknown experiment"},
		{"unknown experiment in a list", []string{"-quick", "-exp", "E2,E99"}, "unknown experiment"},
		{"negative repeat", []string{"-quick", "-repeat", "-2"}, "-repeat must be"},
		{"experiment named twice", []string{"-quick", "-exp", "E2,e2"}, `"E2" given twice, by -exp item 1 (E2) and by -exp item 2 (e2)`},
		{"unwritable json target", []string{"-quick", "-exp", "E2", "-json", filepath.Join(t.TempDir(), "no-such-dir", "out.json")}, "no-such-dir"},
		{"json target is a directory", []string{"-quick", "-exp", "E2", "-json", t.TempDir()}, "is a directory"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// minimalScenarioDoc is a small but complete asyncfd-scenario/v1 config for
// the -config CLI tests.
const minimalScenarioDoc = `{
  "schema": "asyncfd-scenario/v1",
  "name": "cli-demo",
  "title": "one crash, one detector",
  "cluster": {
    "n": 4, "f": 1, "detectors": ["heartbeat"],
    "delay": {"model": "constant", "d_us": 700}
  },
  "faults": {"events": [{"kind": "crash", "at_us": 10000000, "id": 3}]},
  "measure": {
    "program": "cluster",
    "warm_us": 9000000,
    "horizon_us": 20000000,
    "metrics": [{"kind": "detection", "name": "det", "victim": 3}],
    "columns": [{"header": "det avg", "metric": "det", "kind": "fam_ms"}]
  }
}`

// writeScenario drops a scenario document into a temp file and returns its
// path.
func writeScenario(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigErrorPaths covers the -config failure modes: every one must exit
// non-zero with a one-line reason naming the problem, never run a partial
// sweep or write a bogus report.
func TestConfigErrorPaths(t *testing.T) {
	valid := writeScenario(t, minimalScenarioDoc)
	wrongSchema := writeScenario(t, `{"schema": "asyncfd-scenario/v9"}`)
	notJSON := writeScenario(t, `not a config`)
	sameName := writeScenario(t, minimalScenarioDoc)
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"missing file", []string{"-quick", "-config", filepath.Join(t.TempDir(), "absent.json")}, "no such file"},
		{"unknown schema version", []string{"-quick", "-config", wrongSchema}, "unknown schema version"},
		{"invalid config body", []string{"-quick", "-config", notJSON}, "scenario:"},
		{"config and exp conflict", []string{"-quick", "-config", valid, "-exp", "E2"}, "mutually exclusive"},
		{"unwritable json target", []string{"-quick", "-config", valid, "-json", filepath.Join(t.TempDir(), "no-such-dir", "out.json")}, "no-such-dir"},
		{"bad file in a list", []string{"-quick", "-config", valid + "," + wrongSchema}, "unknown schema version"},
		{"two files sharing a name", []string{"-quick", "-config", valid + "," + sameName}, `"cli-demo" given twice, by ` + valid + " and by " + sameName},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestConfigRunsScenario checks the -config happy path: the report carries
// the scenario under its config-declared name, with v2 rows under -ci.
func TestConfigRunsScenario(t *testing.T) {
	path := writeScenario(t, minimalScenarioDoc)
	exps := readExperiments(t, []string{"-quick", "-config", path, "-ci", "-repeat", "2"})
	if len(exps) != 1 || exps[0]["id"] != "cli-demo" {
		t.Fatalf("experiments = %v, want [cli-demo]", exps)
	}
	rows, ok := exps[0]["rows"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatal("scenario run carries no v2 rows under -ci")
	}
	row, _ := rows[0].(map[string]any)
	if row["cell"] != "heartbeat" || row["metric"] != "det_avg_ms" {
		t.Errorf("first row = %v, want cell=heartbeat metric=det_avg_ms", row)
	}
}

// readExperiments runs fdbench with args plus a -json target and returns
// the report's experiment entries.
func readExperiments(t *testing.T, args []string) []map[string]any {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(append(args, "-json", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Experiments
}

// TestExpCommaList checks a comma-separated -exp runs every named
// experiment in order with one combined report — the shape the nightly
// non-quick gate relies on ("-exp L1,L5").
func TestExpCommaList(t *testing.T) {
	exps := readExperiments(t, []string{"-quick", "-exp", "E2, E1", "-ci", "-repeat", "2"})
	if len(exps) != 2 || exps[0]["id"] != "E2" || exps[1]["id"] != "E1" {
		t.Fatalf("experiments = %v, want [E2 E1] in order", exps)
	}
	for _, e := range exps {
		rows, ok := e["rows"].([]any)
		if !ok || len(rows) == 0 {
			t.Errorf("experiment %v carries no v2 rows in list mode", e["id"])
		}
	}
}

// TestCommittedGoldens re-runs the commands that wrote the committed
// BENCH_quick_ci.json and BENCH_scenarios.json and requires the same bytes:
// any differing byte fails. The goldens are written at -parallel 0 and
// re-run here at -parallel 1, so this also pins the report's independence
// from the worker count. To bless an intended change, re-run the command
// into the committed file (from the repository root):
//
//	go run ./cmd/fdbench -quick -repeat 5 -ci -parallel 0 -json BENCH_quick_ci.json
//	go run ./cmd/fdbench -quick -config configs/flapping_link_train.json,configs/crash_burst_island.json,configs/e7_coordinator_restart.json -ci -repeat 2 -parallel 0 -json BENCH_scenarios.json
func TestCommittedGoldens(t *testing.T) {
	var configs []string
	for _, name := range []string{"flapping_link_train", "crash_burst_island", "e7_coordinator_restart"} {
		configs = append(configs, filepath.Join("..", "..", "configs", name+".json"))
	}
	for _, g := range []struct {
		golden string
		args   []string
	}{
		{"BENCH_quick_ci.json", []string{"-quick", "-repeat", "5", "-ci"}},
		{"BENCH_scenarios.json", []string{"-quick", "-config", strings.Join(configs, ","), "-ci", "-repeat", "2"}},
	} {
		t.Run(g.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", g.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(append(g.args, "-parallel", "1", "-json", "-"), &got); err != nil {
				t.Fatal(err)
			}
			if line, committed, fresh := firstDiff(want, got.Bytes()); line > 0 {
				t.Errorf("%s:%d differs from a fresh run of %v\ncommitted: %s\nfresh:     %s",
					g.golden, line, g.args, committed, fresh)
			}
		})
	}
}

// firstDiff returns the 1-based number of the first line at which got
// differs from want, with both versions of that line, or 0 when the two are
// byte-identical.
func firstDiff(want, got []byte) (int, string, string) {
	if bytes.Equal(want, got) {
		return 0, "", ""
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return i + 1, line(w, i), line(g, i)
}
