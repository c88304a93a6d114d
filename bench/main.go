// Command bench is the repository's benchmark: one command that times both
// pipelines end to end — the simulator's experiment engine and the sharded
// live monitor over sockets — and, with -trace 1, attributes the time to
// each layer. BENCHMARK.json at the repository root names the command, the
// workloads and every metric; bench/README.md explains them.
//
// Usage:
//
//	go run ./bench -workload NAME|all [-seed S] [-seconds N] [-trace 0|1]
//	go run ./bench -workload NAME -repeat N
//
// A run prints every metric it measured by name with its unit, checks the
// workload's outputs, and ends with one JSON line for the benchmark driver.
// It exits 1 when an output check fails. -workload all and -repeat run each
// workload in a fresh process of this binary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloads lists the five workloads in run order; BENCHMARK.json and
// bench/README.md say why each exists. BENCHMARK.json lists the gated ones:
// those whose end-to-end metrics repeat within their bounds on the reference
// box, a shared host. The others use both of its cores — the live workloads
// throughout, sim_sparse_topo through the collector, a third of its CPU time
// — and what the host takes from the second core moves their times by about
// as much as the widest bound (README, Measured); they are run by hand,
// -repeat on parent and change in turn.
var workloads = []struct {
	name  string
	run   func(name string, cfg runConfig) (*result, error)
	gated bool
}{
	{"sim_dense_mesh", runSim, true},
	{"sim_sparse_topo", runSim, false},
	{"sim_churn_family", runSim, true},
	{"live_hot_paced", runLive, false},
	{"live_wide_burst", runLive, false},
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration // how long the run measures
	trace   bool
	outDir  string // where the traced run writes its spans
	smoke   bool   // test size: quick configs, few peers, short steps
}

// A run repeats its set-up: at least minSetups times, and on until
// setupBudget is spent or maxSetups reached, so that a set-up of a few tens
// of milliseconds is measured often enough to be steady. A sim run reports
// the fastest, a live run, whose set-up waits for other goroutines, the
// median. A smoke run sets up once.
const (
	minSetups   = 3
	maxSetups   = 60
	setupBudget = 1500 * time.Millisecond
)

func setupsDone(n int, spent time.Duration, smoke bool) bool {
	if smoke {
		return n >= 1
	}
	return n >= maxSetups || n >= minSetups && spent >= setupBudget
}

var errIncorrect = errors.New("output checks failed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", defaultSeed, "workload seed: same seed, same inputs")
	seconds := fs.Int("seconds", 15, "seconds one run measures")
	traceLevel := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	repeat := fs.Int("repeat", 0, "calibration: run the workload N times on seeds S..S+N-1 and check each end-to-end metric's spread against its bound")
	outDir := fs.String("out", "bench/out", "directory the traced run writes <workload>.trace.json to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *traceLevel < 0 || *traceLevel > 1 || *repeat < 0 {
		return errors.New("-seconds must be at least 1, -trace 0 or 1, -repeat not negative")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceLevel == 1, outDir: *outDir}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	runWorkload, ok := workloadByName(names[0])
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of the five in bench/README.md, or all)", *workload)
	}
	if *repeat > 0 || *workload == "all" {
		return runChildren(names, *repeat, cfg)
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

func workloadByName(name string) (func(string, runConfig) (*result, error), bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.run, true
		}
	}
	return nil, false
}
