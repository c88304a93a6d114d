package exp

// runner.go is the sharded experiment engine. Every table cell of the
// reconstructed evaluation is decomposed into independent, seed-addressed
// jobs (config + seed + horizon), each of which builds, runs and measures a
// private DES kernel. RunResults starts every experiment at once; their cell
// jobs share one gate of workers() slots, so no more than that many
// simulations are ever live. runJobs is the one pool: it runs each job on a
// goroutine of its own that holds a slot only while the job runs, and
// returns the results in job index order, so a parallel run renders tables
// byte-identical to a serial one.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"asyncfd/internal/des"
	"asyncfd/internal/stats"
)

// Experiments lists every experiment of the reconstructed evaluation in
// presentation order.
func Experiments() []NamedExperiment {
	return []NamedExperiment{
		{"E1", E1DetectionVsN},
		{"E2", E2DetectionVsF},
		{"E3", E3Disturbance},
		{"E4", E4QoS},
		{"E5", E5MessageCost},
		{"E6", E6MPSensitivity},
		{"E7", E7Consensus},
		{"E8", E8Propagation},
		{"A1", A1TagsAblation},
		{"A2", A2WindowAblation},
		{"R1", R1CrashRecovery},
		{"R2", R2PartitionHeal},
		{"X1", X1DensityExt},
		{"X2", X2MobilityExt},
		{"L1", L1DetectionLargeN},
		{"L5", L5MessageCostLargeN},
		{"LT", LTTopologySweep},
	}
}

// NamedExperiment pairs an experiment id with its generator.
type NamedExperiment struct {
	ID string
	Fn func(Options) (*Table, error)
}

// Result is one experiment's outcome in a full sweep, with the kernel events
// and simulations it took.
type Result struct {
	ID     string
	Table  *Table
	Events int64 // DES events this experiment executed
	Runs   int64 // simulation kernels this experiment completed
	// Rows holds the experiment's aggregated seed-family metric
	// distributions; non-nil only when the run collects samples
	// (Options.Samples set) and the experiment records them. cmd/fdbench
	// serializes these as the asyncfd-bench/v2 rows.
	Rows []stats.Row
}

// RunResults runs the given experiments — RunResults(Experiments(), opts) is
// the whole evaluation — and returns one Result per entry, in entry order.
// Each experiment counts its events and runs into its own EngineStats (their
// sums also go to opts.Stats when set) and, when opts.Samples is set,
// records into its own collector, whose rows become Result.Rows; opts.Samples
// itself receives nothing. Every experiment starts at once and holds no
// slot, so its cell jobs never wait on a slot their own experiment holds;
// the cell jobs of all experiments share one fresh gate of opts.workers()
// slots, so the number of live simulations never exceeds the pool size.
// cmd/fdbench builds its bench JSON from this, whatever the entries' source
// — the registry, an -exp list or scenario config files.
func RunResults(entries []NamedExperiment, opts Options) ([]Result, error) {
	opts.gate = make(chan struct{}, opts.workers())
	jobs := make([]func() (Result, error), len(entries))
	for i, e := range entries {
		jobs[i] = func() (Result, error) {
			o := opts
			o.Stats = &EngineStats{}
			if opts.Samples != nil {
				o.Samples = &stats.Collector{}
			}
			tbl, err := e.Fn(o)
			if err != nil {
				return Result{}, fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			r := Result{ID: e.ID, Table: tbl, Events: o.Stats.Events.Load(), Runs: o.Stats.Runs.Load()}
			if o.Samples != nil {
				r.Rows = o.Samples.Rows()
			}
			if opts.Stats != nil {
				opts.Stats.Events.Add(r.Events)
				opts.Stats.Runs.Add(r.Runs)
			}
			return r, nil
		}
	}
	return runJobs(Options{Parallel: len(entries)}, jobs)
}

// EngineStats accumulates kernel event and run counts across every
// simulation an experiment run executes. RunResults reports them per
// experiment, and cmd/fdbench writes them into its bench JSON.
type EngineStats struct {
	Events atomic.Int64 // DES events executed
	Runs   atomic.Int64 // independent simulation kernels completed
}

// record notes one finished simulation kernel in the run's stats.
func (o Options) record(sim *des.Simulator) {
	if o.Stats != nil {
		o.Stats.Events.Add(int64(sim.Steps()))
		o.Stats.Runs.Add(1)
	}
}

// workers resolves Options.Parallel to a concrete pool size.
func (o Options) workers() int {
	if o.Parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

// runJobs runs o's jobs and returns the results in job index order. Each job
// runs on a goroutine of its own, which holds a slot of the bound only while
// the job runs: the run's shared gate when RunResults installed one, else a
// local gate of o.workers() slots. Every job runs; on failure the
// lowest-index error is returned, whatever the execution interleaving, so
// error reporting is as deterministic as the tables. Jobs must be
// self-contained: each owns its simulation end to end and shares no mutable
// state with its siblings.
func runJobs[R any](o Options, jobs []func() (R, error)) ([]R, error) {
	gate := o.gate
	if gate == nil {
		gate = make(chan struct{}, o.workers())
	}
	results := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		go func() {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			results[i], errs[i] = job()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
