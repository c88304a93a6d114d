// Command benchdiff compares two asyncfd-bench/v2 JSON reports (as written
// by fdbench -ci -json) and flags regressions, so CI — or a reviewer — can
// gate a PR on the committed BENCH trajectory instead of eyeballing it.
//
// Usage:
//
//	benchdiff [-slack F] [-quiet] [-update] [-budget FILE] OLD.json NEW.json
//
// OLD is the baseline (e.g. the committed BENCH_quick_ci.json), NEW the
// candidate (e.g. a freshly generated report on the same flags). Exit
// status: 0 when no regression is found, 1 on regression, 2 on usage or
// input errors — so `benchdiff old new` works directly as a CI gate. A
// baseline without distribution rows (a report written without -ci) has
// nothing deterministic to gate on and is an input error.
//
// # The interval rule
//
// The distribution rows are the deterministic, machine-independent part of
// a report, and benchdiff compares them cell by cell: rows are matched on
// (experiment id, cell, metric) and the candidate's mean is tested against
// the baseline's 95% confidence interval. A matched metric is a regression when its mean moved OUTSIDE
// [mean−ci95, mean+ci95] of the baseline IN THE WORSE DIRECTION — worse is
// metric-aware: detection/convergence times, mistake and storm counts and
// traffic are costs (up = worse), while query_accuracy, holds, clean and
// never_suspected are scores (down = worse). Moves outside the interval in
// the better direction are reported as improvements but do not fail the
// gate. Baseline rows missing from the candidate (a lost experiment, cell
// or metric) are coverage regressions and fail; candidate-only rows are
// reported as additions and pass. -slack F widens every baseline interval
// by F×|mean| (default 0) for deliberately loose gates.
//
// Zero-width intervals (R < 2 families, or zero spread) degrade to exact
// mean equality, and there drift fails in EITHER direction — which is
// precisely right for this engine: rows are byte-identical for a fixed
// (seed, configuration) whatever the machine or -parallel value, so any
// drift at all, "improvement" included, is a behavior change someone must
// either fix or bless by regenerating the committed baseline.
//
// Engine throughput (events_per_sec, runs_per_sec, ns_per_run) is machine-
// and load-dependent; its changes are printed as information and never
// gate.
//
// Mismatched quick/seed flags between the reports make means incomparable;
// benchdiff warns on stderr but still runs the comparison.
//
// # Regression budgets (-budget)
//
// -budget FILE loads per-metric regression allowances from a JSON file of
// the form {"budgets": {"det_avg_ms": 2, "mistakes": 1}}. Each regression
// whose metric still has budget left is downgraded to an informational
// "budgeted" line and consumes one unit; once a metric's allowance is
// exhausted, further regressions on it fail the gate as usual. Budgets
// exist for planned transitions — a PR
// that knowingly worsens a handful of cells on one metric can land with a
// small explicit allowance instead of a blanket -update bless — and the
// budget file is committed next to the baseline so the allowance itself is
// reviewed.
//
// # Blessing changes (-update)
//
// -update regenerates the golden baseline in place: after printing the
// comparison, the candidate report's bytes replace OLD.json verbatim and
// the exit status is 0 whatever the diff said — the flag exists precisely
// to bless intended regressions (or an enlarged row set) when a PR changes
// engine behavior on purpose. The copy is byte-exact, so an immediately
// following `benchdiff OLD.json NEW.json` is guaranteed clean — the
// round-trip a unit test enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricRow mirrors the rows of the asyncfd-bench/v2 schema.
type metricRow struct {
	Cell   string  `json:"cell"`
	Metric string  `json:"metric"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CI95   float64 `json:"ci95"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

type experimentBench struct {
	ID     string      `json:"id"`
	Events int64       `json:"events"`
	Runs   int64       `json:"runs"`
	Rows   []metricRow `json:"rows"`
}

type benchReport struct {
	Schema       string            `json:"schema"`
	Quick        bool              `json:"quick"`
	Seed         int64             `json:"seed"`
	Repeat       *int              `json:"repeat"`
	EventsPerSec float64           `json:"events_per_sec"`
	RunsPerSec   float64           `json:"runs_per_sec"`
	NSPerRun     float64           `json:"ns_per_run"`
	Experiments  []experimentBench `json:"experiments"`
}

func (r *benchReport) hasRows() bool {
	for _, e := range r.Experiments {
		if len(e.Rows) > 0 {
			return true
		}
	}
	return false
}

// higherBetter lists the score metrics, where larger is better. Every
// other metric is a cost (detection/convergence times, mistake, storm and
// suspicion counts, traffic, decision latency): smaller is better.
var higherBetter = map[string]bool{
	"query_accuracy":  true,
	"clean":           true,
	"holds":           true,
	"never_suspected": true,
}

// rowKey addresses one distribution row across reports.
type rowKey struct {
	Exp, Cell, Metric string
}

func (k rowKey) String() string { return k.Exp + " " + k.Cell + " " + k.Metric }

func loadReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema == "" || len(r.Experiments) == 0 {
		return nil, fmt.Errorf("%s: not an asyncfd-bench report (schema %q, %d experiments)", path, r.Schema, len(r.Experiments))
	}
	return &r, nil
}

func rowIndex(r *benchReport) (map[rowKey]metricRow, []rowKey) {
	idx := make(map[rowKey]metricRow)
	var keys []rowKey
	for _, e := range r.Experiments {
		for _, row := range e.Rows {
			k := rowKey{Exp: e.ID, Cell: row.Cell, Metric: row.Metric}
			idx[k] = row
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Exp != b.Exp {
			return a.Exp < b.Exp
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Metric < b.Metric
	})
	return idx, keys
}

// regression is one gate failure, tagged with the metric it landed on so a
// -budget allowance can absorb it.
type regression struct {
	metric string
	line   string
}

// diff holds the outcome of one comparison run.
type diff struct {
	regressions  []regression
	improvements []string
	additions    int
	compared     int
}

// compareRows applies the interval rule to every baseline row.
func compareRows(old, cand *benchReport, slack float64) diff {
	var d diff
	oldIdx, oldKeys := rowIndex(old)
	newIdx, newKeys := rowIndex(cand)
	for _, k := range oldKeys {
		o := oldIdx[k]
		n, ok := newIdx[k]
		if !ok {
			d.regressions = append(d.regressions, regression{k.Metric,
				fmt.Sprintf("%s: row missing from candidate (coverage regression)", k)})
			continue
		}
		d.compared++
		tolerance := o.CI95 + slack*abs(o.Mean)
		delta := n.Mean - o.Mean
		if abs(delta) <= tolerance {
			continue
		}
		line := fmt.Sprintf("%s: mean %g -> %g (baseline ±%g, n=%d)", k, o.Mean, n.Mean, tolerance, o.N)
		if tolerance == 0 {
			// A zero-width interval means the baseline row is deterministic
			// (R < 2 or zero spread): ANY drift is a behavior change that
			// must be blessed by regenerating the baseline, whatever the
			// direction.
			d.regressions = append(d.regressions, regression{k.Metric, line + " [zero-width interval: deterministic row changed]"})
			continue
		}
		worse := delta > 0
		if higherBetter[k.Metric] {
			worse = delta < 0
		}
		if worse {
			d.regressions = append(d.regressions, regression{k.Metric, line})
		} else {
			d.improvements = append(d.improvements, line)
		}
	}
	for _, k := range newKeys {
		if _, ok := oldIdx[k]; !ok {
			d.additions++
		}
	}
	return d
}

// reportThroughput prints how the machine-dependent throughput fields
// moved; the rows gate, these never do.
func reportThroughput(old, cand *benchReport, out io.Writer) {
	fields := []struct {
		name string
		o, n float64
	}{
		{"events_per_sec", old.EventsPerSec, cand.EventsPerSec},
		{"runs_per_sec", old.RunsPerSec, cand.RunsPerSec},
		{"ns_per_run", old.NSPerRun, cand.NSPerRun},
	}
	for _, f := range fields {
		if f.o != 0 {
			fmt.Fprintf(out, "info: throughput %s %.4g -> %.4g (%+.1f%%, not gated)\n", f.name, f.o, f.n, (f.n-f.o)/f.o*100)
		}
	}
}

// budgetFile is the on-disk shape of a -budget allowance file.
type budgetFile struct {
	Budgets map[string]int `json:"budgets"`
}

func loadBudgets(path string) (map[string]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf budgetFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Budgets == nil {
		return nil, fmt.Errorf("%s: not a budget file (no \"budgets\" object)", path)
	}
	for metric, n := range bf.Budgets {
		if n < 0 {
			return nil, fmt.Errorf("%s: budget for %q is negative (%d)", path, metric, n)
		}
	}
	return bf.Budgets, nil
}

// applyBudgets splits the regression list into hard failures and budgeted
// ones: each regression whose metric still has allowance left consumes one
// unit and is downgraded. Allowance is consumed in report order, so the
// first N regressions on a metric are the blessed ones.
func applyBudgets(regs []regression, budgets map[string]int) (hard []regression, budgeted []string) {
	remaining := make(map[string]int, len(budgets))
	for m, n := range budgets {
		remaining[m] = n
	}
	for _, r := range regs {
		if remaining[r.metric] > 0 {
			remaining[r.metric]--
			budgeted = append(budgeted,
				fmt.Sprintf("%s [budget %s: %d left]", r.line, r.metric, remaining[r.metric]))
			continue
		}
		hard = append(hard, r)
	}
	return hard, budgeted
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// run executes the comparison and returns the regression list. An error
// means the comparison itself could not run (usage, unreadable input).
func run(args []string, out io.Writer) ([]string, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	slack := fs.Float64("slack", 0, "extra allowed drift on rows, as a fraction of the baseline mean, added to the ci95 half-width")
	quiet := fs.Bool("quiet", false, "suppress improvement/addition/info lines; print regressions only")
	update := fs.Bool("update", false, "after comparing, regenerate the baseline in place: overwrite OLD.json with the candidate's bytes and exit 0 (bless the changes)")
	budgetPath := fs.String("budget", "", "JSON file of per-metric regression allowances ({\"budgets\": {\"metric\": N}}); the first N regressions on each listed metric are downgraded to informational lines")
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: benchdiff [flags] OLD.json NEW.json\n\ncompares two asyncfd-bench reports (see 'go doc ./cmd/benchdiff')\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return nil, fmt.Errorf("want exactly 2 arguments, got %d", fs.NArg())
	}
	oldRep, err := loadReport(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	if !oldRep.hasRows() {
		return nil, fmt.Errorf("%s: baseline carries no distribution rows to gate on (schema %q; generate it with fdbench -ci)", fs.Arg(0), oldRep.Schema)
	}
	newRep, err := loadReport(fs.Arg(1))
	if err != nil {
		return nil, err
	}
	var budgets map[string]int
	if *budgetPath != "" {
		if budgets, err = loadBudgets(*budgetPath); err != nil {
			return nil, err
		}
	}
	if oldRep.Quick != newRep.Quick || oldRep.Seed != newRep.Seed {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: reports differ in quick/seed (old quick=%v seed=%d, new quick=%v seed=%d); means may be incomparable\n",
			oldRep.Quick, oldRep.Seed, newRep.Quick, newRep.Seed)
	}

	d := compareRows(oldRep, newRep, *slack)
	if !*quiet {
		reportThroughput(oldRep, newRep, out)
	}

	hard, budgeted := applyBudgets(d.regressions, budgets)
	for _, r := range hard {
		fmt.Fprintf(out, "REGRESSION %s\n", r.line)
	}
	// Budgeted regressions are part of the verdict (allowance was spent), so
	// they print even under -quiet — just without the failing prefix.
	for _, line := range budgeted {
		fmt.Fprintf(out, "budgeted %s\n", line)
	}
	if !*quiet {
		for _, line := range d.improvements {
			fmt.Fprintf(out, "improvement %s\n", line)
		}
	}
	fmt.Fprintf(out, "benchdiff: %d regressions (%d budgeted), %d improvements, %d rows compared, %d rows added\n",
		len(hard), len(budgeted), len(d.improvements), d.compared, d.additions)
	if *update {
		// Byte-exact copy: the blessed baseline IS the candidate report, so
		// re-diffing the pair immediately afterwards is clean by construction.
		raw, err := os.ReadFile(fs.Arg(1))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(fs.Arg(0), raw, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "benchdiff: baseline %s regenerated from %s (%d regressions blessed)\n",
			fs.Arg(0), fs.Arg(1), len(hard))
		return nil, nil
	}
	lines := make([]string, len(hard))
	for i, r := range hard {
		lines[i] = r.line
	}
	return lines, nil
}

func main() {
	regressions, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
		}
		os.Exit(2)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
}
