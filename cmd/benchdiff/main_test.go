package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// v2Report builds a minimal v2 report with one E1 row.
func v2Report(mean, ci95 float64) *benchReport {
	repeat := 5
	return &benchReport{
		Schema: "asyncfd-bench/v2",
		Quick:  true,
		Seed:   1,
		Repeat: &repeat,
		Experiments: []experimentBench{{
			ID: "E1",
			Rows: []metricRow{{
				Cell: "n=8/async", Metric: "det_avg_ms", N: 5,
				Mean: mean, CI95: ci95,
			}},
		}},
	}
}

// writeReport marshals r into dir and returns the path.
func writeReport(t *testing.T, dir, name string, r *benchReport) string {
	t.Helper()
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runDiff runs benchdiff over the two reports and returns the regression
// list and captured output.
func runDiff(t *testing.T, args []string, old, cand *benchReport) ([]string, string) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{writeReport(t, dir, "old.json", old), writeReport(t, dir, "new.json", cand)}
	var out strings.Builder
	regressions, err := run(append(args, paths...), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return regressions, out.String()
}

func TestIdenticalReportsPass(t *testing.T) {
	regressions, out := runDiff(t, nil, v2Report(12.5, 0.8), v2Report(12.5, 0.8))
	if len(regressions) != 0 {
		t.Errorf("identical reports flagged: %v\n%s", regressions, out)
	}
}

func TestInsideIntervalPasses(t *testing.T) {
	regressions, _ := runDiff(t, nil, v2Report(12.5, 0.8), v2Report(13.1, 0.2))
	if len(regressions) != 0 {
		t.Errorf("in-interval drift flagged: %v", regressions)
	}
}

func TestOutsideIntervalWorseFails(t *testing.T) {
	regressions, out := runDiff(t, nil, v2Report(12.5, 0.8), v2Report(14.0, 0.8))
	if len(regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly 1\n%s", regressions, out)
	}
	if !strings.Contains(regressions[0], "E1 n=8/async det_avg_ms") {
		t.Errorf("regression line lacks the row key: %q", regressions[0])
	}
}

func TestOutsideIntervalBetterIsImprovement(t *testing.T) {
	// det_avg_ms is a cost: a big drop is an improvement, not a regression.
	regressions, out := runDiff(t, nil, v2Report(12.5, 0.8), v2Report(10.0, 0.8))
	if len(regressions) != 0 {
		t.Errorf("improvement flagged as regression: %v", regressions)
	}
	if !strings.Contains(out, "improvement") {
		t.Errorf("improvement not reported:\n%s", out)
	}
}

func TestHigherBetterMetricDirection(t *testing.T) {
	mk := func(mean float64) *benchReport {
		r := v2Report(mean, 0.01)
		r.Experiments[0].Rows[0].Metric = "query_accuracy"
		return r
	}
	if regressions, _ := runDiff(t, nil, mk(0.99), mk(0.80)); len(regressions) != 1 {
		t.Errorf("query_accuracy drop not flagged: %v", regressions)
	}
	if regressions, _ := runDiff(t, nil, mk(0.80), mk(0.99)); len(regressions) != 0 {
		t.Errorf("query_accuracy gain flagged: %v", regressions)
	}
}

func TestZeroWidthIntervalRequiresExactMatch(t *testing.T) {
	// R=1 rows have ci95 = 0: ANY drift fails, in either direction — the
	// engine is deterministic, so drift means behavior changed and the
	// baseline must be regenerated to bless it.
	if regressions, _ := runDiff(t, nil, v2Report(12.5, 0), v2Report(12.6, 0)); len(regressions) != 1 {
		t.Errorf("zero-width worse drift not flagged: %v", regressions)
	}
	regressions, _ := runDiff(t, nil, v2Report(12.5, 0), v2Report(12.4, 0))
	if len(regressions) != 1 {
		t.Fatalf("zero-width better-direction drift not flagged: %v", regressions)
	}
	if !strings.Contains(regressions[0], "deterministic row changed") {
		t.Errorf("zero-width regression lacks the explanation: %q", regressions[0])
	}
	// -slack widens the zero interval into a relative band.
	if regressions, _ := runDiff(t, []string{"-slack", "0.05"}, v2Report(12.5, 0), v2Report(12.6, 0)); len(regressions) != 0 {
		t.Errorf("slack did not widen the interval: %v", regressions)
	}
}

func TestMissingRowIsCoverageRegression(t *testing.T) {
	cand := v2Report(12.5, 0.8)
	cand.Experiments[0].Rows = nil
	regressions, _ := runDiff(t, nil, v2Report(12.5, 0.8), cand)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "missing") {
		t.Errorf("missing row not flagged as coverage regression: %v", regressions)
	}
}

func TestAddedRowsPass(t *testing.T) {
	cand := v2Report(12.5, 0.8)
	cand.Experiments[0].Rows = append(cand.Experiments[0].Rows, metricRow{
		Cell: "n=8/async", Metric: "det_max_ms", N: 5, Mean: 30, CI95: 1,
	})
	regressions, out := runDiff(t, nil, v2Report(12.5, 0.8), cand)
	if len(regressions) != 0 {
		t.Errorf("candidate-only rows flagged: %v", regressions)
	}
	if !strings.Contains(out, "1 rows added") {
		t.Errorf("addition not counted:\n%s", out)
	}
}

// TestRowlessBaselineIsInputError: a baseline written without -ci has no
// deterministic content to gate on; benchdiff refuses it (exit 2) rather
// than pass vacuously or fall back to machine-dependent throughput.
func TestRowlessBaselineIsInputError(t *testing.T) {
	dir := t.TempDir()
	rowless := v2Report(12.5, 0.8)
	rowless.Experiments[0].Rows = nil
	old := writeReport(t, dir, "old.json", rowless)
	cand := writeReport(t, dir, "new.json", v2Report(12.5, 0.8))
	var out strings.Builder
	if _, err := run([]string{old, cand}, &out); err == nil || !strings.Contains(err.Error(), "no distribution rows") {
		t.Errorf("rowless baseline: err = %v, want an input error naming the missing rows", err)
	}
	// The other way round the baseline's rows are all missing: a coverage
	// regression, not an input error.
	regressions, err := run([]string{cand, old}, &out)
	if err != nil || len(regressions) != 1 {
		t.Errorf("rowless candidate: regressions = %v, err = %v, want 1 coverage regression", regressions, err)
	}
}

func TestV2ThroughputIsInformationalOnly(t *testing.T) {
	old, cand := v2Report(12.5, 0.8), v2Report(12.5, 0.8)
	old.EventsPerSec, cand.EventsPerSec = 1e6, 1e5 // 10× slower machine
	regressions, out := runDiff(t, nil, old, cand)
	if len(regressions) != 0 {
		t.Errorf("v2 throughput gated: %v", regressions)
	}
	if !strings.Contains(out, "not gated") {
		t.Errorf("v2 throughput change not reported as info:\n%s", out)
	}
}

func TestUsageAndInputErrors(t *testing.T) {
	var out strings.Builder
	if _, err := run([]string{"only-one.json"}, &out); err == nil {
		t.Error("one argument accepted")
	}
	if _, err := run([]string{"a.json", "b.json", "c.json"}, &out); err == nil {
		t.Error("three arguments accepted")
	}
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", v2Report(1, 0))
	if _, err := run([]string{filepath.Join(dir, "missing.json"), good}, &out); err == nil {
		t.Error("unreadable baseline accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"hello": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{good, bad}, &out); err == nil {
		t.Error("non-bench JSON accepted")
	}
}

// writeBudget writes a budget allowance file into dir and returns its path.
func writeBudget(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "budgets.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// v2Report2Rows builds a report with two det_avg_ms cells, both at the given
// means, so one metric can regress in two places at once.
func v2Report2Rows(mean1, mean2 float64) *benchReport {
	r := v2Report(mean1, 0.1)
	r.Experiments[0].Rows = append(r.Experiments[0].Rows, metricRow{
		Cell: "n=16/async", Metric: "det_avg_ms", N: 5, Mean: mean2, CI95: 0.1,
	})
	return r
}

func TestBudgetAbsorbsListedMetric(t *testing.T) {
	dir := t.TempDir()
	budget := writeBudget(t, dir, `{"budgets": {"det_avg_ms": 2}}`)
	regressions, out := runDiff(t, []string{"-budget", budget},
		v2Report2Rows(12.5, 20.0), v2Report2Rows(14.0, 25.0))
	if len(regressions) != 0 {
		t.Errorf("budgeted regressions still failed the gate: %v\n%s", regressions, out)
	}
	if !strings.Contains(out, "budgeted") || !strings.Contains(out, "0 left") {
		t.Errorf("budget consumption not reported:\n%s", out)
	}
	if !strings.Contains(out, "0 regressions (2 budgeted)") {
		t.Errorf("summary lacks the budgeted count:\n%s", out)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// Allowance 1, regressions 2 on the same metric: the first is blessed in
	// report order, the second fails the gate.
	dir := t.TempDir()
	budget := writeBudget(t, dir, `{"budgets": {"det_avg_ms": 1}}`)
	regressions, out := runDiff(t, []string{"-budget", budget},
		v2Report2Rows(12.5, 20.0), v2Report2Rows(14.0, 25.0))
	if len(regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly 1 (budget of 1 exhausted)\n%s", regressions, out)
	}
	// Report order is the sorted row-key order, where "n=16" < "n=8"
	// lexicographically: the n=16 cell consumes the allowance.
	if !strings.Contains(regressions[0], "n=8/async") {
		t.Errorf("wrong regression survived: allowance must be spent in report order, got %q", regressions[0])
	}
	if !strings.Contains(out, "1 regressions (1 budgeted)") {
		t.Errorf("summary lacks the split:\n%s", out)
	}
}

func TestBudgetOtherMetricDoesNotAbsorb(t *testing.T) {
	dir := t.TempDir()
	budget := writeBudget(t, dir, `{"budgets": {"mistakes": 5}}`)
	regressions, _ := runDiff(t, []string{"-budget", budget},
		v2Report(12.5, 0.8), v2Report(14.0, 0.8))
	if len(regressions) != 1 {
		t.Errorf("allowance on an unrelated metric absorbed a det_avg_ms regression: %v", regressions)
	}
}

func TestBudgetFileErrors(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", v2Report(12.5, 0.8))
	cand := writeReport(t, dir, "new.json", v2Report(12.5, 0.8))
	var out strings.Builder
	for name, body := range map[string]string{
		"malformed": `{"budgets": `,
		"no-object": `{"hello": 1}`,
		"negative":  `{"budgets": {"det_avg_ms": -1}}`,
	} {
		path := writeBudget(t, dir, body)
		if _, err := run([]string{"-budget", path, old, cand}, &out); err == nil {
			t.Errorf("%s budget file accepted", name)
		}
	}
	if _, err := run([]string{"-budget", filepath.Join(dir, "missing.json"), old, cand}, &out); err == nil {
		t.Error("missing budget file accepted")
	}
}

// TestUpdateRoundTripWithBudget: -budget and -update compose — the blessed
// count reflects only the unbudgeted regressions, the baseline still becomes
// the candidate byte-exactly, and the post-update diff is clean.
func TestUpdateRoundTripWithBudget(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", v2Report2Rows(12.5, 20.0))
	newPath := writeReport(t, dir, "new.json", v2Report2Rows(14.0, 25.0))
	budget := writeBudget(t, dir, `{"budgets": {"det_avg_ms": 1}}`)

	var out strings.Builder
	regressions, err := run([]string{"-budget", budget, "-update", oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("-update returned regressions %v, want none (blessed)", regressions)
	}
	if !strings.Contains(out.String(), "(1 regressions blessed)") {
		t.Errorf("bless count should be the unbudgeted regressions only:\n%s", out.String())
	}
	oldRaw, _ := os.ReadFile(oldPath)
	newRaw, _ := os.ReadFile(newPath)
	if string(oldRaw) != string(newRaw) {
		t.Fatal("-update did not copy the candidate byte-exactly")
	}

	out.Reset()
	regressions, err = run([]string{"-budget", budget, oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Errorf("post-update diff not clean: %v\n%s", regressions, out.String())
	}
}

// TestUpdateRoundTrip: -update must regenerate the baseline in place from
// the candidate — byte-exactly — so update→diff round-trips clean even when
// the pre-update comparison was a hard regression.
func TestUpdateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", v2Report(12.5, 0))
	newPath := writeReport(t, dir, "new.json", v2Report(14.0, 0.8))

	// Sanity: without -update this pair is a regression.
	var out strings.Builder
	regressions, err := run([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 {
		t.Fatalf("pre-update regressions = %v, want 1", regressions)
	}

	// -update blesses it: exit-clean (no regressions returned) and the
	// baseline file now carries the candidate's bytes verbatim.
	out.Reset()
	regressions, err = run([]string{"-update", oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("-update returned regressions %v, want none (blessed)", regressions)
	}
	if !strings.Contains(out.String(), "regenerated") {
		t.Errorf("-update did not report the regeneration:\n%s", out.String())
	}
	oldRaw, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newRaw, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(oldRaw) != string(newRaw) {
		t.Fatal("-update did not copy the candidate byte-exactly")
	}

	// Round trip: diffing the updated baseline against the candidate is clean.
	out.Reset()
	regressions, err = run([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Errorf("post-update diff not clean: %v\n%s", regressions, out.String())
	}
}
