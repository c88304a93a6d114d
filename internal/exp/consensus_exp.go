package exp

import (
	"fmt"
	"sync"
	"time"

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

// Result is one experiment's outcome in a full sweep, with its share of the
// engine throughput counters.
type Result struct {
	ID    string
	Table *Table
	// Wall is the experiment's elapsed time. Under a parallel Options,
	// experiments overlap, so Wall times need not sum to the sweep's total.
	Wall   time.Duration
	Events int64 // DES events this experiment executed
	Runs   int64 // simulation kernels this experiment completed
	// Rows holds the experiment's aggregated seed-family metric
	// distributions; non-nil only when the run collects samples
	// (Options.Samples set) and the experiment records them. cmd/fdbench
	// serializes these as the asyncfd-bench/v2 rows.
	Rows []stats.Row
}

// RunResults runs the given experiments — RunResults(Experiments(), opts) is
// the whole evaluation — and returns one Result per entry, in entry order:
// each carries its own wall time and throughput counters (also folded into
// opts.Stats when set). With a parallel Options the experiments fan out
// concurrently while all their cell jobs share one run-wide Workers()-sized
// gate, so the number of live simulations never exceeds the pool size; the
// results stay in entry order, so output is identical to a serial run.
// cmd/fdbench builds its bench JSON from this, whatever the entries' source
// — the registry, an -exp list or scenario config files.
func RunResults(entries []NamedExperiment, opts Options) ([]Result, error) {
	results := make([]Result, len(entries))
	// Each experiment collects into a private collector so its aggregated
	// rows land on its own Result entry; the caller's collector receives
	// every sample afterwards, merged in presentation order so its Rows()
	// stay deterministic at any worker count.
	var cols []*stats.Collector
	if opts.Samples != nil {
		cols = make([]*stats.Collector, len(entries))
		for i := range cols {
			cols[i] = &stats.Collector{}
		}
	}
	runOne := func(i int, e NamedExperiment) error {
		eng := &EngineStats{}
		eOpts := opts
		eOpts.Stats = eng
		if cols != nil {
			eOpts.Samples = cols[i]
		}
		t0 := time.Now() //fdlint:allow walltime observability: wall-clock runtime reported beside results, never feeds simulation
		tbl, err := e.Fn(eOpts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		results[i] = Result{
			ID:     e.ID,
			Table:  tbl,
			Wall:   time.Since(t0), //fdlint:allow walltime observability: wall-clock runtime reported beside results, never feeds simulation
			Events: eng.Events.Load(),
			Runs:   eng.Runs.Load(),
		}
		if cols != nil {
			results[i].Rows = cols[i].Rows()
		}
		if opts.Stats != nil {
			opts.Stats.Events.Add(results[i].Events)
			opts.Stats.Runs.Add(results[i].Runs)
		}
		return nil
	}
	// mergeSamples forwards every experiment's samples to the caller's
	// collector, in presentation order.
	mergeSamples := func() {
		for _, col := range cols {
			opts.Samples.AddSamples(col.Samples())
		}
	}
	if opts.Workers() <= 1 {
		for i, e := range entries {
			if err := runOne(i, e); err != nil {
				return nil, err
			}
		}
		if cols != nil {
			mergeSamples()
		}
		return results, nil
	}
	if opts.gate == nil {
		opts.gate = make(chan struct{}, opts.Workers())
	}
	// One goroutine per experiment; they hold no gate slots themselves, so
	// the leaf jobs inside can always make progress (no nested-pool
	// deadlock), yet everything funnels through the shared gate.
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	wg.Add(len(entries))
	for i, e := range entries {
		i, e := i, e
		go func() {
			defer wg.Done()
			errs[i] = runOne(i, e)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cols != nil {
		mergeSamples()
	}
	return results, nil
}
