package exp

// fork.go is the warm-fork replication engine. Every replicated cell of the
// reconstructed evaluation is an R-seed family whose replicates share one
// deterministic warmup prefix: the cluster boots, rounds begin, estimator
// windows fill — all driven by the family's base seed — and only after the
// fork horizon do the replicates diverge, each re-seeding the kernel RNG
// with its strided seed. That shared prefix used to be re-simulated R times;
// with forking it is simulated once, checkpointed (des.Snapshot +
// netsim.Snapshot + trace mark + per-node state), and restored for each
// subsequent replicate. Tables and v2 rows are byte-identical either way —
// the serial comparator stays in the tree and the differential tests in
// fork_diff_test.go hold both paths to that bar.

import (
	"time"

	"asyncfd/internal/qos"
)

// forkEnabled resolves the run's replication mode: warm forking unless
// Options.Fork pins the serial comparator.
func (o Options) forkEnabled() bool { return o.Fork >= 0 }

// family is one R-replicate seed family of an experiment cell: a cluster
// configuration at the family's base seed, the fork horizon its replicates
// share, and the measurement that runs a warmed cluster to completion.
type family[M any] struct {
	// warm is the fork horizon: the virtual time up to which every replicate
	// runs the identical base-seed prefix. It must precede the first fault
	// or measured behavior that replicates are meant to vary over; fault
	// schedules applied at build time may fire after it (the pending events
	// are part of the checkpoint).
	warm time.Duration
	// build constructs the family's cluster at the base seed and applies its
	// fault schedule, returning the ground truth (nil when faultless).
	build func() (*Cluster, *qos.GroundTruth, error)
	// run advances the warmed cluster to the family's horizon and measures
	// it. It is called once per replicate, always from the same warmed state.
	run func(c *Cluster, truth *qos.GroundTruth) (M, error)
}

// runFamilies executes every family's R replicates and returns the
// measurements flattened family-major, replicate-minor — the same order the
// flat per-replicate job construction produced before warm forking.
//
// Replication semantics (both paths): replicate 0 continues the base-seed
// stream from the warm horizon to completion untouched, so R=1 runs are
// plain base-seed runs; replicate r ≥ 1 re-seeds the kernel RNG at the
// horizon with the strided seed base+101·r and diverges from there. The
// fork path builds and warms each family once, checkpoints it, and restores
// the checkpoint for every subsequent replicate; the serial path re-builds
// and re-warms per replicate. Byte-identity of the two paths is enforced by
// TestSweepByteIdenticalAcrossForkModes and, at the kernel level, by
// FuzzForkEquivalence in internal/des.
func runFamilies[M any](opts Options, fams []family[M]) ([]M, error) {
	R := opts.runs()
	if !opts.forkEnabled() {
		jobs := make([]func() (M, error), 0, len(fams)*R)
		for _, fam := range fams {
			fam := fam
			for r := 0; r < R; r++ {
				r := r
				jobs = append(jobs, func() (M, error) {
					var zero M
					c, truth, err := fam.build()
					if err != nil {
						return zero, err
					}
					c.RunUntil(fam.warm)
					if r > 0 {
						c.Sim.Reseed(opts.seed() + int64(r)*101)
					}
					return fam.run(c, truth)
				})
			}
		}
		return runJobs(opts, jobs)
	}
	jobs := make([]func() ([]M, error), len(fams))
	for i, fam := range fams {
		fam := fam
		jobs[i] = func() ([]M, error) {
			c, truth, err := fam.build()
			if err != nil {
				return nil, err
			}
			c.RunUntil(fam.warm)
			var snap *ClusterSnapshot
			if R > 1 {
				snap = c.Snapshot()
			}
			out := make([]M, R)
			for r := 0; r < R; r++ {
				if r > 0 {
					c.Restore(snap)
					c.Sim.Reseed(opts.seed() + int64(r)*101)
				}
				m, err := fam.run(c, truth)
				if err != nil {
					return nil, err
				}
				out[r] = m
			}
			return out, nil
		}
	}
	grouped, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	flat := make([]M, 0, len(fams)*R)
	for _, g := range grouped {
		flat = append(flat, g...)
	}
	return flat, nil
}
