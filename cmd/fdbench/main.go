// Command fdbench regenerates every table and figure of the reconstructed
// evaluation (see the repository README and docs/BENCHMARKS.md) on the
// sharded experiment engine, optionally in parallel, with many-seed
// confidence intervals and machine-readable benchmark output.
//
// Usage:
//
//	fdbench [-exp all|E1..E8|A1|A2|R1|R2|X1|X2|L1|L5|LT|comma-list] [-quick]
//	        [-config FILE[,FILE...]]
//	        [-seed N] [-repeat R] [-parallel N] [-ci] [-json FILE]
//
// Row kinds: ids E1–E8 are the reconstructed paper-family tables, A1/A2 the
// ablations, R1/R2 the fault-scenario sweeps (crash-recovery and
// partition/heal), X1/X2 the partial-connectivity extensions, L1/L5 the
// large-machine-size sweeps (E1's detection time and E5's message cost at
// n=128/256) and LT the topology sweep (neighbor-local detection and
// per-process traffic on ring/grid/scale-free/MANET graphs at
// n=1024/2048/4096, tractable thanks to netsim's sparse delivery and the
// one-pass qos Judge; quick mode shrinks the large sweeps to one small
// size like every other table). -exp also accepts a comma-separated list
// ("L1,L5,LT"), reported in the given order in one combined report — the
// nightly bench gate uses this.
//
// -config runs scenario config files (schema asyncfd-scenario/v1, see
// internal/scenario and docs/BENCHMARKS.md "Scenario configs") instead of
// the registry's experiments: each file compiles into a cluster, fault
// schedule and metric set and executes on the same engine, so the tables
// and -ci rows follow the exact conventions above — R1, R2, LT and E7 are
// themselves such documents, embedded in internal/exp. A comma-separated
// list reports each config in order in one combined report, which is how
// BENCH_scenarios.json is written from the shipped configs/ library.
// -config and -exp are mutually exclusive; -quick selects each
// config's "quick" overlay when it has one. The report's experiment ids are
// the scenarios' names.
//
// Whatever the source, the run is one list of experiments handed to one
// engine call. An id may appear in it once: the report's rows are keyed by
// experiment id, so a repeated id (two configs sharing a name, "-exp E1,E1")
// is rejected before anything runs.
//
// -parallel sizes the worker pool experiment cells run on: 1 = serial
// (default), N > 1 = that many workers, 0 or negative = one worker per CPU.
// Tables and the -json report are byte-identical whatever the pool size.
//
// -repeat R sets the seed-family size: every replicated cell runs R seeds
// (base seed plus a fixed per-replicate stride) and tables aggregate across
// the family. 0 keeps the default family (1 seed in -quick mode, 3
// otherwise).
//
// -json writes a benchmark report to FILE ("-" = stdout, suppressing the
// tables), schema "asyncfd-bench/v2". It holds only what the seed and the
// flags determine, so one command writes the same bytes on any machine and
// at any -parallel value:
//
//	{
//	  "schema": "asyncfd-bench/v2",   // schema identifier, bumped on change
//	  "quick": true,                  // quick-mode sweep?
//	  "seed": 1,                      // base random seed
//	  "experiments": [                // one entry per experiment, in order
//	    {"id": "E1",
//	     "events": 59715,             // DES kernel events executed
//	     "runs": 40},                 // independent simulations completed
//	    ...
//	  ]
//	}
//
// -ci collects the per-replicate metric samples and adds, on each
// experiment that records them, a "rows" array of per-cell per-metric
// distribution summaries over the seed family (without -ci the report
// carries no "rows"):
//
//	{"id": "E1", "events": ..., "runs": ...,
//	 "rows": [
//	   {"cell": "n=128/async",     // table cell the family belongs to
//	    "metric": "det_avg_ms",    // metric name; *_ms = milliseconds
//	    "n": 5,                    // family size the row comes from
//	    "mean": 2012.4,            // sample mean
//	    "stderr": 14.2,            // standard error of the mean
//	    "ci95": 39.4,              // Student-t 95% CI half-width:
//	                               //   mean ± ci95
//	    "p50": 2008.1, "p99": 2051.0,
//	    "min": 1980.3, "max": 2052.7},
//	   ...]}
//
// Every experiment in the sweep records samples. Per experiment:
// E1/L1 (det_avg_ms/det_max_ms per n×detector), E2 (detection,
// mistake_rate, query_accuracy per f), E3 (mistakes, mistake_dur_ms,
// peak_false_susp per detector under the slowdown), E4 (mistakes,
// mistake_rate, mistake_dur_ms, query_accuracy per delay-model×detector),
// E5/L5 (msgs_per_proc_s, bytes_per_proc_s; single-seed families), E6
// (never_suspected, holds, favored_suspected per MP bias), E7
// (decision_ms per detector), E8 (spread_ms, last_det_ms per n×detector),
// A1 (tail_transitions, suspected_pairs, mistakes per tag variant), A2
// (det_avg_ms/det_max_ms, mistake_rate, query_accuracy per window), R1
// (det1/restore/det2 and storm per detector×state-mode), R2 (storm,
// reconverge_ms, clean per detector), X1 (det_avg_ms/det_max_ms per
// density×variant), X2 (peak_false_susp, false_susp_total per mobility
// variant), and LT (det_avg_ms/det_max_ms, avg_degree, msgs_per_proc_s,
// bytes_per_proc_s per topology×n). Rows are sorted by cell then metric and
// are byte-identical at any -parallel value (regression-tested), so reports
// diff cleanly. A family of R < 2 seeds has stderr = ci95 = 0 — run with
// -repeat 5 (or more) for meaningful intervals.
//
// With -repeat 2+, replicated table cells also render their family mean
// with the Student-t 95% half-width appended ("12.3ms ±0.8ms");
// unreplicated runs render byte-identically to earlier releases.
//
// The BENCH_*.json files at the repo root are such reports:
// BENCH_quick_ci.json is -quick -repeat 5 -ci, BENCH_scenarios.json the
// three configs/ documents at -quick -ci -repeat 2, and BENCH_nightly.json
// -exp L1,L5,LT -repeat 10 -ci. A fresh run must reproduce each byte for
// byte (TestCommittedGoldens holds the first two, the nightly workflow the
// third); to bless an intended change, re-run the command into the
// committed file. See docs/BENCHMARKS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"asyncfd/internal/exp"
	"asyncfd/internal/scenario"
	"asyncfd/internal/stats"
)

// metricRow is the JSON form of one asyncfd-bench/v2 distribution row.
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

func toMetricRows(rows []stats.Row) []metricRow {
	out := make([]metricRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, metricRow{
			Cell: r.Cell, Metric: r.Metric, N: r.N,
			Mean: r.Mean, StdErr: r.StdErr, CI95: r.CI95,
			P50: r.P50, P99: r.P99, Min: r.Min, Max: r.Max,
		})
	}
	return out
}

type experimentBench struct {
	ID     string      `json:"id"`
	Events int64       `json:"events"`
	Runs   int64       `json:"runs"`
	Rows   []metricRow `json:"rows,omitempty"` // -ci only
}

type benchReport struct {
	Schema      string            `json:"schema"`
	Quick       bool              `json:"quick"`
	Seed        int64             `json:"seed"`
	Experiments []experimentBench `json:"experiments"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
}

// run executes one fdbench command line, writing tables (or the "-json -"
// report) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id (E1..E8, A1, A2, R1, R2, X1, X2, L1, L5, LT), a comma-separated list, or 'all'")
	configPath := fs.String("config", "", "scenario config file(s) to run instead of the -exp experiments (asyncfd-scenario/v1 JSON, comma-separated list allowed); mutually exclusive with -exp")
	quickFlag := fs.Bool("quick", false, "shrink sweeps and horizons")
	seed := fs.Int64("seed", 1, "base random seed")
	repeat := fs.Int("repeat", 0, "seed-family size R per cell (0 = default: 1 with -quick, 3 otherwise)")
	parallel := fs.Int("parallel", 1, "worker pool size; 0 or negative = one worker per CPU")
	ciFlag := fs.Bool("ci", false, "collect per-cell seed-family distributions into the -json report's rows (mean/stderr/ci95/p50/p99 per metric)")
	jsonPath := fs.String("json", "", "write a bench report (schema asyncfd-bench/v2) to this file; '-' = stdout, tables suppressed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	expSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			expSet = true
		}
	})
	if *configPath != "" && expSet {
		return fmt.Errorf("-config and -exp are mutually exclusive; a config file names its own scenario")
	}
	if *parallel == 0 {
		*parallel = -1 // 0 and negative both mean GOMAXPROCS
	}
	if *repeat < 0 {
		return fmt.Errorf("-repeat must be ≥ 0, got %d", *repeat)
	}
	opts := exp.Options{Seed: *seed, Quick: *quickFlag, Parallel: *parallel, Repeat: *repeat}
	if *ciFlag {
		opts.Samples = &stats.Collector{}
	}

	// Every source yields one list of experiments, each id at most once.
	var entries []exp.NamedExperiment
	seen := map[string]string{} // lower-cased id → where it came from
	add := func(e exp.NamedExperiment, source string) error {
		key := strings.ToLower(e.ID)
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("experiment id %q given twice, by %s and by %s", e.ID, prev, source)
		}
		seen[key] = source
		entries = append(entries, e)
		return nil
	}
	switch {
	case *configPath != "":
		for _, path := range strings.Split(*configPath, ",") {
			path = strings.TrimSpace(path)
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sc, err := scenario.Parse(data, *quickFlag)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fn := func(o exp.Options) (*exp.Table, error) { return exp.ScenarioTable(sc, o) }
			if err := add(exp.NamedExperiment{ID: sc.Name, Fn: fn}, path); err != nil {
				return err
			}
		}
	case strings.EqualFold(*expID, "all"):
		entries = exp.Experiments()
	default:
		registry := exp.Experiments()
		for i, id := range strings.Split(*expID, ",") {
			id = strings.TrimSpace(id)
			k := slices.IndexFunc(registry, func(e exp.NamedExperiment) bool { return strings.EqualFold(e.ID, id) })
			if k < 0 {
				return fmt.Errorf("unknown experiment %q", id)
			}
			if err := add(registry[k], fmt.Sprintf("-exp item %d (%s)", i+1, id)); err != nil {
				return err
			}
		}
	}

	// Experiment- and cell-level fan-out share one worker gate, so small
	// experiments overlap the big ones.
	results, err := exp.RunResults(entries, opts)
	if err != nil {
		return err
	}

	jsonOnly := *jsonPath == "-"
	report := benchReport{Schema: "asyncfd-bench/v2", Quick: *quickFlag, Seed: *seed}
	for _, r := range results {
		report.Experiments = append(report.Experiments, experimentBench{
			ID:     r.ID,
			Events: r.Events,
			Runs:   r.Runs,
			Rows:   toMetricRows(r.Rows),
		})
		if !jsonOnly {
			if err := r.Table.Render(stdout); err != nil {
				return err
			}
		}
	}

	if *jsonPath == "" {
		return nil
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if jsonOnly {
		_, err = stdout.Write(out)
		return err
	}
	return os.WriteFile(*jsonPath, out, 0o644)
}
