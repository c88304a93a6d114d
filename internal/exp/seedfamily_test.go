package exp

// seedfamily_test.go covers the many-seed confidence-interval machinery:
// the Repeat knob, sample collection, and the engine guarantee extended to
// the asyncfd-bench/v2 aggregate rows — byte-identical serial vs. parallel.

import (
	"encoding/json"
	"testing"

	"asyncfd/internal/stats"
)

// TestRepeatControlsFamilySize: Repeat overrides the per-cell seed-family
// size, multiplying the simulation count accordingly.
func TestRepeatControlsFamilySize(t *testing.T) {
	var eng EngineStats
	opts := Options{Quick: true, Repeat: 2, Stats: &eng}
	if got := opts.runs(); got != 2 {
		t.Fatalf("runs() = %d, want 2", got)
	}
	if _, err := E1DetectionVsN(opts); err != nil {
		t.Fatal(err)
	}
	// Quick E1: 2 sizes × 4 detectors × Repeat = 16 simulations.
	if got := eng.Runs.Load(); got != 16 {
		t.Errorf("Runs = %d, want 16", got)
	}
	if (Options{Quick: true}).runs() != 1 || (Options{}).runs() != 3 {
		t.Error("Repeat=0 must keep the historical defaults (quick 1, full 3)")
	}
}

// v2RowsJSON runs the sampled experiments at the given worker count and
// returns their aggregate rows serialized to JSON — the exact bytes
// cmd/fdbench would emit as asyncfd-bench/v2 rows (modulo field naming).
func v2RowsJSON(t *testing.T, workers int) string {
	t.Helper()
	col := &stats.Collector{}
	opts := Options{Quick: true, Seed: 5, Repeat: 3, Parallel: workers, Samples: col}
	for _, fn := range []func(Options) (*Table, error){E1DetectionVsN, E3Disturbance, E4QoS, A2WindowAblation, R1CrashRecovery} {
		if _, err := fn(opts); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(col.Rows())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestV2RowsByteIdenticalSerialParallel pins the v2 guarantee: the
// aggregated seed-family rows of E1/E4/R1 serialize to the same bytes at
// any worker count.
func TestV2RowsByteIdenticalSerialParallel(t *testing.T) {
	serial := v2RowsJSON(t, 0)
	if serial == "null" || serial == "[]" {
		t.Fatal("no rows collected")
	}
	for _, workers := range []int{2, -1} {
		if parallel := v2RowsJSON(t, workers); parallel != serial {
			t.Fatalf("v2 rows (workers=%d) differ from serial", workers)
		}
	}
}

// TestSeedFamilyRowShape checks the statistical content of the collected
// rows: family size R, a real spread across seeds, and a CI half-width
// consistent with the Student-t critical value for R−1 degrees of freedom.
func TestSeedFamilyRowShape(t *testing.T) {
	col := &stats.Collector{}
	opts := Options{Quick: true, Seed: 1, Repeat: 3, Samples: col}
	if _, err := E1DetectionVsN(opts); err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	spread := false
	for _, r := range rows {
		if r.N != 3 {
			t.Fatalf("row %s/%s: N = %d, want 3", r.Cell, r.Metric, r.N)
		}
		if r.Min > r.P50 || r.P50 > r.Max || r.Mean < r.Min || r.Mean > r.Max {
			t.Fatalf("row %s/%s: inconsistent order stats %+v", r.Cell, r.Metric, r.Summary)
		}
		if r.StdErr > 0 {
			spread = true
			want := stats.TCritical95(r.N-1) * r.StdErr
			if diff := r.CI95 - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("row %s/%s: CI95 = %v, want t×stderr = %v", r.Cell, r.Metric, r.CI95, want)
			}
		}
	}
	if !spread {
		t.Error("every family has zero spread — seeds are not being varied")
	}
}

// TestAllResultsCarriesRows: the sweep-level API must attach EVERY
// experiment's rows to its own Result — since PR 4 the whole sweep
// (E1–E8, ablations, scenarios, extensions, large-n) records samples.
func TestAllResultsCarriesRows(t *testing.T) {
	results, err := RunResults(Experiments(), Options{Quick: true, Parallel: 2, Samples: &stats.Collector{}})
	if err != nil {
		t.Fatal(err)
	}
	sampled := map[string]bool{}
	for _, r := range results {
		if len(r.Rows) > 0 {
			sampled[r.ID] = true
		}
	}
	for _, e := range Experiments() {
		if !sampled[e.ID] {
			t.Errorf("experiment %s carries no rows", e.ID)
		}
	}
}
