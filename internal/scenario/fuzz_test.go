package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// shippedDoc is one scenario document committed to the repository.
type shippedDoc struct {
	path string
	data []byte
}

// committedDocs reads every scenario document the repository ships: the
// configs/ library, the built-in tables' documents and the benchmark's
// workloads, in path order within each directory.
func committedDocs(t testing.TB) []shippedDoc {
	var docs []shippedDoc
	for _, pattern := range []string{"../../configs/*.json", "../exp/scenarios/*.json", "../../bench/workloads/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no documents under %s (err %v)", pattern, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, shippedDoc{path, data})
		}
	}
	return docs
}

// TestCommittedDocumentsCompile compiles every shipped document at full
// size and under its quick overlay. CI and the committed goldens run the
// configs/ library in quick mode only; this is what parses its full-size
// sections.
func TestCommittedDocumentsCompile(t *testing.T) {
	for _, doc := range committedDocs(t) {
		for _, quick := range []bool{false, true} {
			if _, err := Parse(doc.data, quick); err != nil {
				t.Errorf("%s (quick=%v): %v", doc.path, quick, err)
			}
		}
	}
}

// FuzzScenarioConfig holds Parse to its contract: an arbitrary byte string
// either compiles into a structurally valid scenario or fails with a
// diagnostic carrying the "scenario: " prefix (which every error path
// follows with the offending field path). Nothing may panic, and nothing
// may succeed while leaving the scenario in a state the execution engine
// would have to defend against.
//
// The committed corpus (testdata/fuzz/FuzzScenarioConfig) seeds the mutator
// with documents near the validation boundaries; the in-code seeds below
// cover every program and the overlay path, and every shipped document is a
// seed, so mutation starts from the real traffic. CI runs this for a short budget
// on every push (see .github/workflows).
func FuzzScenarioConfig(f *testing.F) {
	for _, doc := range committedDocs(f) {
		f.Add(doc.data)
	}
	f.Add([]byte(clusterDoc))
	f.Add([]byte(topoDoc))
	f.Add([]byte(consensusDoc))
	f.Add([]byte(`{"schema": "asyncfd-scenario/v1"}`))
	f.Add([]byte(`{"schema": "asyncfd-scenario/v0"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"schema": "asyncfd-scenario/v1", "name": "x", "title": "t",
	  "cluster": {"n": 4, "f": 1, "detectors": ["async"],
	    "delay": {"model": "trace", "synthetic": {"seed": 1, "count": 10, "tick_us": 1000, "base_us": 100, "scale_us": 50, "alpha": 2.0, "cap_us": 0, "loss": 0.5}}},
	  "faults": {"generators": [{"kind": "crash-burst", "ids": [1, 2], "at_us": 1000000, "spacing_us": 1000}]},
	  "measure": {"program": "cluster", "horizon_us": 5000000,
	    "metrics": [{"kind": "detection", "name": "det", "victim": 1}],
	    "columns": [{"header": "det", "metric": "det", "kind": "fam_ms"}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, quick := range []bool{false, true} {
			sc, err := Parse(data, quick)
			if err != nil {
				if sc != nil {
					t.Fatalf("quick=%v: error with non-nil scenario: %v", quick, err)
				}
				if !strings.HasPrefix(err.Error(), "scenario: ") {
					t.Fatalf("quick=%v: error without diagnostic prefix: %v", quick, err)
				}
				continue
			}
			// A compiled scenario must satisfy the invariants the engine
			// assumes rather than re-checks.
			if sc.Name == "" || sc.Title == "" {
				t.Fatalf("quick=%v: accepted scenario without name/title: %+v", quick, sc)
			}
			if !slices.Contains([]Program{ProgramCluster, ProgramTopology, ProgramConsensus}, sc.Measure.Program) {
				t.Fatalf("quick=%v: accepted scenario with program %v", quick, sc.Measure.Program)
			}
			if sc.Cluster.Delay == nil {
				t.Fatalf("quick=%v: accepted scenario without a delay model", quick)
			}
			if len(sc.Variants) == 0 {
				t.Fatalf("quick=%v: accepted scenario without variants", quick)
			}
			if sc.Measure.Horizon <= 0 {
				t.Fatalf("quick=%v: accepted scenario with horizon %v", quick, sc.Measure.Horizon)
			}
			if sc.Measure.Program == ProgramCluster && (len(sc.Measure.Metrics) == 0 || len(sc.Measure.Columns) == 0) {
				t.Fatalf("quick=%v: accepted cluster scenario without metrics/columns", quick)
			}
		}
	})
}
