package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncfd/internal/exp"
	"asyncfd/internal/scenario"
)

// TestRunCrashRecovery is the happy path: one cell of R1 at quick size (the
// last process crashes, recovers with persisted state and crashes again)
// prints its timeline, the row fdbench renders for that cell, and the
// footer.
func TestRunCrashRecovery(t *testing.T) {
	doc := filepath.Join("..", "..", "internal", "exp", "scenarios", "r1.json")
	var out bytes.Buffer
	if err := run([]string{"-config", doc, "-quick", "-cell", "heartbeat/persisted"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Parse(data, true)
	if err != nil {
		t.Fatal(err)
	}
	table, err := exp.ScenarioTable(sc, exp.Options{Seed: 1, Repeat: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(table.Rows[3], " ") // heartbeat, persisted
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "heartbeat ") {
			row = strings.Join(strings.Fields(line), " ")
		}
	}
	if row != want {
		t.Errorf("printed row %q, fdbench's row %q\n%s", row, want, out.String())
	}
	for _, part := range []string{"suspicion timeline:", "suspects p5", "mistakes: ", "query accuracy PA=", "traffic: "} {
		if !strings.Contains(out.String(), part) {
			t.Errorf("output lacks %q:\n%s", part, out.String())
		}
	}
}

// faultDoc is a valid document whose schedule has one event of every kind;
// TestRunErrorPaths breaks it one defect at a time.
const faultDoc = `{
  "schema": "asyncfd-scenario/v1", "name": "x", "title": "t",
  "cluster": {"n": 4, "f": 1, "detectors": ["async"], "delay": {"model": "constant", "d_us": 700}},
  "faults": {"events": [
    {"kind": "crash", "at_us": 1000000, "id": 3},
    {"kind": "recover", "at_us": 2000000, "id": 3, "fresh": true},
    {"kind": "crash", "at_us": 3000000, "id": 3},
    {"kind": "partition", "at_us": 4000000, "islands": [[2]]},
    {"kind": "heal", "at_us": 5000000}]},
  "measure": {"program": "cluster", "horizon_us": 10000000,
    "metrics": [{"kind": "storm", "name": "s", "from_us": 0, "to_us": 10000000}],
    "columns": [{"header": "s", "metric": "s", "kind": "fam"}]}
}`

// TestRunErrorPaths: a command line that names no runnable cell fails. The
// schedule defects fdsim's flags once spelled fail in the one compiler.
func TestRunErrorPaths(t *testing.T) {
	const (
		crash1, recover, crash2 = `"at_us": 1000000, "id": 3`, `"at_us": 2000000`, `"at_us": 3000000`
		partition, heal         = `"at_us": 4000000`, `"at_us": 5000000`
	)
	cases := []struct {
		name  string
		edits []string // old, new pairs applied to faultDoc; none: args alone
		args  []string
		want  string
	}{
		{"missing config", nil, []string{"-quick"}, "-config is required"},
		{"zero seed", nil, []string{"-config", filepath.Join("..", "..", "internal", "exp", "scenarios", "r2.json"), "-seed", "0"}, "-seed must not be 0"},
		{"unknown cell", nil, []string{"-config", filepath.Join("..", "..", "internal", "exp", "scenarios", "r2.json"), "-cell", "oracle"},
			`no cell "oracle" (cells: async, heartbeat, phi-accrual, chen-nfde)`},
		{"consensus program", nil, []string{"-config", filepath.Join("..", "..", "configs", "e7_coordinator_restart.json")}, "the consensus program"},
		{"unknown kind", []string{`["async"]`, `["oracle"]`}, nil, "cluster.detectors[0]"},
		{"crash >= n", []string{crash1, `"at_us": 1000000, "id": 9`}, nil, "process id 9 outside [0, n=4)"},
		{"crash == n", []string{crash1, `"at_us": 1000000, "id": 4`}, nil, "process id 4 outside [0, n=4)"},
		{"crash below -1", []string{crash1, `"at_us": 1000000, "id": -2`}, nil, "process id -2 outside [0, n=4)"},
		{"recover without crash", []string{`{"kind": "crash", ` + crash1 + `},`, ``}, nil, "without a preceding crash"},
		{"recover before crash", []string{recover, `"at_us": 500000`}, nil, "without a preceding crash"},
		{"crash2 without recover", []string{recover, `"at_us": 9000000`}, nil, "while already down"},
		{"heal without partition", []string{partition, `"at_us": 6000000`}, nil, "without an active partition"},
		{"crash at the horizon", []string{crash2, `"at_us": 10000000`}, nil, "at 10s does not precede the horizon"},
		{"crash past the horizon", []string{crash2, `"at_us": 50000000`}, nil, "at 50s does not precede the horizon"},
		{"recover past the horizon", []string{recover, `"at_us": 45000000`, `{"kind": "crash", ` + crash2 + `, "id": 3},`, ``}, nil,
			"at 45s does not precede the horizon"},
		{"crash2 past the horizon", []string{crash2, `"at_us": 30000000`}, nil, "at 30s does not precede the horizon"},
		{"partition past the horizon", []string{heal, `"at_us": 60000000`, partition, `"at_us": 50000000`}, nil, "at 50s does not precede the horizon"},
		{"heal past the horizon", []string{heal, `"at_us": 40000000`}, nil, "at 40s does not precede the horizon"},
		{"island >= n", []string{`[[2]]`, `[[0, 1, 2, 3]]`}, nil, "cuts no one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.edits != nil {
				doc := faultDoc
				for i := 0; i < len(tc.edits); i += 2 {
					if strings.Count(doc, tc.edits[i]) != 1 {
						t.Fatalf("edit target %q is not in the document exactly once", tc.edits[i])
					}
					doc = strings.Replace(doc, tc.edits[i], tc.edits[i+1], 1)
				}
				path := filepath.Join(t.TempDir(), "doc.json")
				if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
					t.Fatal(err)
				}
				args = []string{"-config", path}
			}
			err := run(args, &bytes.Buffer{})
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error = %q, want substring %q", args, err, tc.want)
			}
		})
	}
}
