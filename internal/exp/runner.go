package exp

// runner.go is the sharded experiment engine. Every table cell of the
// reconstructed evaluation is decomposed into independent, seed-addressed
// jobs (config + seed + horizon), each of which builds, runs and measures a
// private DES kernel. Jobs execute on a bounded worker pool and results are
// always assembled in job index order, so a parallel run renders tables
// byte-identical to a serial one.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"asyncfd/internal/des"
)

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

// runJobs executes o's jobs on a bounded pool and returns the results in
// job index order. The bound is the run's shared gate when one exists
// (RunResults installs a single workers()-sized gate so concurrently
// fanned-out experiments cannot multiply into workers² live simulations),
// and a local workers()-sized pool otherwise. On failure the lowest-index error is
// returned, whatever the execution interleaving, so error reporting is as
// deterministic as the tables. Jobs must be self-contained: each owns its
// simulation end to end and shares no mutable state with its siblings.
func runJobs[R any](o Options, jobs []func() (R, error)) ([]R, error) {
	results := make([]R, len(jobs))
	workers := o.workers()
	if o.gate == nil && (workers <= 1 || len(jobs) <= 1) {
		for i, job := range jobs {
			r, err := job()
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	gate := o.gate
	if gate == nil {
		gate = make(chan struct{}, workers)
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i := range jobs {
		i := i
		go func() {
			defer wg.Done()
			gate <- struct{}{} // hold a slot only while the job runs
			defer func() { <-gate }()
			results[i], errs[i] = jobs[i]()
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
