package exp

// grid.go is the cell grid every table runs on. A table is a list of cells;
// a cell is an R-replicate seed family under one asyncfd-bench/v2 key. There
// are two kinds of replicate, and this file is the only place that knows
// either, the stride between replicate seeds, or how observations become v2
// samples:
//
//   - a warm-fork family (E1–E4, E6, E8, A1, A2, L1, the scenario cluster
//     program) builds its cluster once at the base seed and runs it to the
//     fork horizon — boot, first rounds, estimator windows filling — and only
//     there do replicates diverge: replicate 0 continues the base-seed stream
//     untouched, so R=1 is a plain base-seed run, and replicate r ≥ 1 reseeds
//     the kernel RNG at the horizon. The shared prefix is simulated once,
//     checkpointed and restored per replicate; Options.serial selects the
//     serial comparator that rebuilds and re-warms per replicate instead, the
//     reference the differential tests (fork_diff_test.go, and
//     FuzzForkEquivalence in internal/des) hold forking byte-identical to;
//   - a seed-addressed job (X1, X2, the scenario topology and consensus
//     programs; E5/L5 pinned to one replicate) builds replicate r from
//     scratch at its own seed, because what varies is built before the
//     kernel runs: the graph, the start jitter.
//
// Samples reach Options.Samples from the ordered fold after every job has
// finished, never from a running job, so v2 rows are byte-identical at any
// worker count.

import (
	"fmt"
	"slices"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/qos"
)

// replicateStride separates the seeds of a cell's replicates: replicate r
// runs (family: reseeds at the horizon) at base seed + r·replicateStride.
const replicateStride = 101

func (o Options) replicateSeed(r int) int64 { return o.seed() + int64(r)*replicateStride }

// observation is one named value a replicate measured. Sampled observations
// become asyncfd-bench/v2 samples under the cell's key; unsampled ones only
// reach the table (a per-second series, a missing-detection count).
type observation struct {
	name    string
	value   float64
	sampled bool
}

// obs is what one replicate observed, in recording order.
type obs []observation

func (o obs) add(name string, v float64) obs  { return append(o, observation{name, v, true}) }
func (o obs) hide(name string, v float64) obs { return append(o, observation{name, v, false}) }

// detection records a DetectionStats observation's average and maximum
// under prefix ("det" → "det_avg_ms", "det_max_ms").
func (o obs) detection(prefix string, s qos.DetectionStats) obs {
	return o.add(prefix+"_avg_ms", qos.Millis(s.Avg)).add(prefix+"_max_ms", qos.Millis(s.Max))
}

// indicator is the 0/1 observation of a per-replicate predicate.
func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// family is the warm-fork kind of cell body.
type family struct {
	// warm is the fork horizon: the virtual time up to which every replicate
	// runs the identical base-seed prefix. It must precede the first fault
	// or measured behavior that replicates are meant to vary over; events
	// scheduled at build time may fire after it (pending events are part of
	// the checkpoint).
	warm time.Duration
	// horizon is the virtual time every replicate runs to before measure.
	horizon time.Duration
	// build constructs the cluster at the base seed and schedules its
	// faults, returning their ground truth.
	build func() (*Cluster, *qos.GroundTruth, error)
	// measure reads one finished replicate.
	measure func(c *Cluster, truth *qos.GroundTruth) obs
}

// faulted is the usual family build: a cluster with a fault schedule applied
// (an empty schedule schedules nothing and yields an empty ground truth).
func faulted(cfg ClusterConfig, sched faults.Schedule) func() (*Cluster, *qos.GroundTruth, error) {
	return func() (*Cluster, *qos.GroundTruth, error) {
		c, err := NewCluster(cfg)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Apply(sched), nil
	}
}

// replicates runs replicates [from, to) off one warmed cluster: it builds,
// runs to the fork horizon and — when there is more than one to run —
// checkpoints; every replicate after the first restores the checkpoint,
// every replicate but 0 reseeds the kernel RNG at the horizon, and each runs
// to the horizon and is measured. The whole family in one call is warm
// forking; one call per replicate is the serial comparator.
func (f *family) replicates(opts Options, from, to int) ([]obs, error) {
	c, truth, err := f.build()
	if err != nil {
		return nil, err
	}
	c.RunUntil(f.warm)
	var snap *ClusterSnapshot
	if to-from > 1 {
		snap = c.Snapshot()
	}
	out := make([]obs, 0, to-from)
	for r := from; r < to; r++ {
		if r > from {
			c.Restore(snap)
		}
		if r > 0 {
			c.Sim.Reseed(opts.replicateSeed(r))
		}
		c.RunUntil(f.horizon)
		opts.record(c.Sim)
		out = append(out, f.measure(c, truth))
	}
	return out, nil
}

// cell is one table cell: its v2 key and exactly one of the two bodies.
type cell struct {
	key string
	fam *family
	// job builds, runs and measures one replicate at the given seed; it
	// records its own kernel with Options.record.
	job func(seed int64) (obs, error)
	// once pins the cell to a single replicate whatever Options.Repeat says
	// (traffic counts are delay-schedule-stable).
	once bool
}

// series is one cell's family folded by observation name: series[name][r]
// is what replicate r recorded under name.
type series map[string][]float64

func (s series) ms(name string) string { return famMS(s[name]) }

// maxMS renders the family's worst value of a millisecond observation.
func (s series) maxMS(name string) string {
	return fmt.Sprintf("%.1fms", slices.Max(s[name]))
}

// detection renders the "avg", "max" column pair of obs.detection(prefix).
func (s series) detection(prefix string) []string {
	return []string{s.ms(prefix + "_avg_ms"), s.maxMS(prefix + "_max_ms")}
}

func (s series) sum(name string) float64 {
	total := 0.0
	for _, v := range s[name] {
		total += v
	}
	return total
}

// ratio renders "k/R": how many of the R replicates recorded a nonzero value.
func (s series) ratio(name string) string {
	nonzero := 0
	for _, v := range s[name] {
		if v != 0 {
			nonzero++
		}
	}
	return fmt.Sprintf("%d/%d", nonzero, len(s[name]))
}

// runGrid runs every cell's replicates on the shared pool and returns one
// series per cell, in cell order, after recording every sampled observation
// into opts.Samples under the cell's key in replicate order. On failure the
// error of the lowest-index cell (lowest replicate within it) is returned at
// any pool width.
func runGrid(opts Options, cells []cell) ([]series, error) {
	var jobs []func() ([]obs, error)
	var owner []int // owner[j]: the cell whose replicates job j returns
	for ci, cl := range cells {
		R := opts.runs()
		if cl.once {
			R = 1
		}
		// A job runs step replicates: a forked family all R off one warmed
		// cluster, everything else one.
		step := 1
		if cl.fam != nil && !opts.serial {
			step = R
		}
		for from := 0; from < R; from += step {
			owner = append(owner, ci)
			jobs = append(jobs, func() (got []obs, err error) {
				if cl.fam != nil {
					got, err = cl.fam.replicates(opts, from, from+step)
				} else {
					got = make([]obs, 1)
					got[0], err = cl.job(opts.replicateSeed(from))
				}
				if err != nil {
					return nil, fmt.Errorf("cell %s: %w", cl.key, err)
				}
				return got, nil
			})
		}
	}
	results, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	reps := make([][]obs, len(cells))
	for j, got := range results {
		reps[owner[j]] = append(reps[owner[j]], got...)
	}
	out := make([]series, len(cells))
	for ci, cl := range cells {
		out[ci] = series{}
		for r, o := range reps[ci] {
			for _, ob := range o {
				if ob.sampled && opts.Samples != nil {
					opts.Samples.Add(cl.key, ob.name, r, ob.value)
				}
				out[ci][ob.name] = append(out[ci][ob.name], ob.value)
			}
		}
	}
	return out, nil
}

// row is one table row: its leading label cells, and the grid cells whose
// rendered columns follow them.
type row struct {
	label []string
	cells []cell
}

// runTable runs the rows' cells as one grid and adds one table row per row:
// the label, then render's columns for each of the row's cells in order.
func runTable(opts Options, t *Table, rows []row, render func(series) []string) (*Table, error) {
	var cells []cell
	for _, r := range rows {
		cells = append(cells, r.cells...)
	}
	res, err := runGrid(opts, cells)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		out := slices.Clone(r.label)
		for _, s := range res[:len(r.cells)] {
			out = append(out, render(s)...)
		}
		res = res[len(r.cells):]
		t.AddRow(out...)
	}
	return t, nil
}
