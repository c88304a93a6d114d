// Command fdsim runs one cell of a scenario document as a single replicate
// and prints its suspicion timeline, the table row fdbench renders for that
// cell, and the run's mistakes, query accuracy and traffic.
//
// Usage:
//
//	fdsim -config FILE [-cell KEY] [-quick] [-seed 1] [-trace]
//
// FILE is an asyncfd-scenario/v1 document of the cluster program: one of
// configs/, or the R1 and R2 documents in internal/exp/scenarios/. KEY is
// the cell's key in fdbench's v2 report: the detector ("async"), or
// detector/variant ("heartbeat/fresh") when the document names variants;
// it defaults to the first cell. -quick selects the document's "quick"
// overlay. The row is the one `fdbench -config FILE -repeat 1` renders for
// the cell at the same -seed and -quick.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"asyncfd/internal/exp"
	"asyncfd/internal/qos"
	"asyncfd/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fdsim", flag.ContinueOnError)
	configPath := fs.String("config", "", "scenario document to run (asyncfd-scenario/v1 JSON, cluster program)")
	key := fs.String("cell", "", "cell to run: detector or detector/variant, as keyed in fdbench's v2 report (default: the first)")
	quick := fs.Bool("quick", false, "select the document's quick overlay")
	seed := fs.Int64("seed", 1, "random seed (non-zero)")
	showTrace := fs.Bool("trace", true, "print the suspicion event timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("-config is required")
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must not be 0: the engine reads seed 0 as unset and would run seed 1")
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	sc, err := scenario.Parse(data, *quick)
	if err != nil {
		return fmt.Errorf("%s: %w", *configPath, err)
	}
	t, c, truth, err := exp.ScenarioCell(sc, *key, exp.Options{Seed: *seed})
	if err != nil {
		return err
	}
	horizon := sc.Measure.Horizon

	fmt.Fprintf(stdout, "scenario=%s n=%d f=%d seed=%d horizon=%v\n\n", sc.Name, sc.Cluster.N, sc.Cluster.F, *seed, horizon)
	if *showTrace {
		fmt.Fprint(stdout, "suspicion timeline:\n")
		events := c.Log.Events()
		if len(events) == 0 {
			fmt.Fprintln(stdout, "  (no suspicion events)")
		}
		for _, e := range events {
			fmt.Fprintf(stdout, "  %v\n", e)
		}
		fmt.Fprintln(stdout)
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	m := qos.NewMistakes(truth, c.Members, horizon)
	pa := qos.NewQueryAccuracy(truth, c.Members, horizon)
	qos.Fold(c.Log, m, pa)
	mist := m.Result()
	fmt.Fprintf(stdout, "mistakes: closed=%d unresolved=%d avg-duration=%v rate=%.5f/pair/s\n",
		mist.Count, mist.Unresolved, mist.AvgDuration, mist.Rate)
	fmt.Fprintf(stdout, "query accuracy PA=%.4f\n", pa.Result())
	st := c.Net.Stats()
	fmt.Fprintf(stdout, "traffic: sent=%d delivered=%d dropped=%d\n", st.Sent, st.Delivered, st.Dropped)
	return nil
}
