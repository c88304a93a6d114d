package exp

import (
	"fmt"
	"strconv"
	"time"

	"asyncfd/internal/faults"
	"asyncfd/internal/ident"
	"asyncfd/internal/qos"
	"asyncfd/internal/topology"
)

// extF is the crash bound of both extension tables.
const extF = 2

// extConfig is the cluster both extension tables run on g: the asynchronous
// detector in its unknown-membership form, or the gossip heartbeat
// comparator with Δ=1s Θ=4s (multi-hop needs a larger Θ). Everyone starts at
// t=0.
func extConfig(kind Kind, g *topology.Graph, seed int64) ClusterConfig {
	return ClusterConfig{
		Kind: kind, Graph: g, F: extF, Seed: seed,
		Delay:       defaultDelay(),
		StartJitter: -1,
		Window:      250 * time.Millisecond,
		Interval:    250 * time.Millisecond,
		HBInterval:  time.Second,
		HBTimeout:   4 * time.Second,
	}
}

// X1DensityExt regenerates the shape of the extension report's Figure 2:
// failure detection time versus range density d on an f-covering partial
// topology. The timer-based gossip detector sits between Θ−Δ and Θ
// regardless of d; the asynchronous detector's detection time falls as the
// density (and hence flooding speed) grows.
func X1DensityExt(opts Options) (*Table, error) {
	n := 24
	ks := []int{2, 3, 4, 5} // circulant chord counts: d = 2k+1
	if opts.Quick {
		n = 12
		ks = []int{2, 3}
	}
	const (
		crashAt = 10 * time.Second
		horizon = 60 * time.Second
	)
	t := &Table{
		ID:    "X1",
		Title: "EXTENSION: detection time vs range density d (partial topology, unknown membership)",
		Note: fmt.Sprintf("circulant graphs on n=%d, f=%d, crash at t=10s; gossip-FT uses Δ=1s Θ=4s "+
			"(multi-hop needs a larger Θ); shape of RR-6088 Fig. 2", n, extF),
		Columns: []string{"d", "async avg", "async max", "gossip-FT avg", "gossip-FT max"},
	}
	// Per density, an R-seed family for each variant: the asynchronous
	// detector on the unknown network, and the gossip heartbeat comparator
	// on the same topology.
	variants := []Kind{KindAsync, KindGossip}
	var jobs []func() (qos.DetectionStats, error)
	for _, k := range ks {
		k := k
		crash := ident.ID(0)
		for _, variant := range variants {
			variant := variant
			for r := 0; r < opts.runs(); r++ {
				seed := opts.seed() + int64(r)*101
				jobs = append(jobs, func() (qos.DetectionStats, error) {
					c, err := NewCluster(extConfig(variant, topology.Circulant(n, k), seed))
					if err != nil {
						return qos.DetectionStats{}, fmt.Errorf("X1 %v d=%d: %w", variant, 2*k+1, err)
					}
					truth := c.Apply(faults.Schedule{}.CrashAt(crash, crashAt))
					c.RunUntil(horizon)
					opts.record(c.Sim)
					observers := c.Members.Clone()
					observers.Remove(crash)
					return qos.DetectionTimes(c.Log, truth, crash, observers), nil
				})
			}
		}
	}
	cells, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, k := range ks {
		row := []string{strconv.Itoa(2*k + 1)}
		for _, variant := range variants {
			cell := fmt.Sprintf("d=%d/%v", 2*k+1, variant)
			var avgs []float64
			var agg []qos.DetectionStats
			for r := 0; r < opts.runs(); r++ {
				s := cells[idx]
				idx++
				agg = append(agg, s)
				avgs = append(avgs, qos.Millis(s.Avg))
				opts.sampleDetection(cell, "det", r, s)
			}
			row = append(row, famMS(avgs), ms(aggregateDetection(agg).Max))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// X2MobilityExt regenerates the shape of the extension report's Figure 3:
// the total number of false suspicions over time when a node moves to a
// different range and reconnects. The asynchronous detector shows the
// report's signature double wave — the network suspects the mover, then the
// mover suspects its old neighbors — before mistakes flood and everything
// converges to zero.
func X2MobilityExt(opts Options) (*Table, error) {
	n := 20
	if opts.Quick {
		n = 14
	}
	const (
		k       = 3 // d = 7, as in the report's density-7 mobility run
		away    = 30 * time.Second
		back    = 60 * time.Second
		horizon = 150 * time.Second
	)
	var times []time.Duration
	for s := 25; s <= 145; s += 2 {
		times = append(times, time.Duration(s)*time.Second)
	}
	// New range on the other side of the ring: d−1 consecutive nodes.
	newRange := func() ident.Set {
		var s ident.Set
		for i := 0; i < 2*k; i++ {
			s.Add(ident.ID(n/2 - k + i))
		}
		return s
	}
	variants := []Kind{KindAsync, KindGossip}
	// One R-seed family per variant; async replicates first, then gossip.
	var jobs []func() ([]int, error)
	for _, variant := range variants {
		variant := variant
		for r := 0; r < opts.runs(); r++ {
			seed := opts.seed() + int64(r)*101
			jobs = append(jobs, func() ([]int, error) {
				cfg := extConfig(variant, topology.Circulant(n, k), seed)
				cfg.Rebroadcast, cfg.Mobility = time.Second, true
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, fmt.Errorf("X2 %v: %w", variant, err)
				}
				c.RelocateAt(0, newRange(), away, back)
				c.RunUntil(horizon)
				opts.record(c.Sim)
				// Nobody crashes: every suspicion is false.
				return qos.FalseSuspicionSeries(c.Log, &qos.GroundTruth{}, times), nil
			})
		}
	}
	series, err := runJobs(opts, jobs)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "X2",
		Title: "EXTENSION: total false suspicions over time while a node moves to a new range",
		Note: fmt.Sprintf("n=%d circulant d=7, f=%d; node p0 detaches at 30s, reattaches across the ring at 60s; "+
			"shape of RR-6088 Fig. 3", n, extF),
		Columns: []string{"t", "async", "gossip-FT"},
	}
	// perTime[variant][timepoint] holds the family's series values.
	perTime := make([][][]float64, len(variants))
	idx := 0
	for v, variant := range variants {
		cell := fmt.Sprintf("mobility/%v", variant)
		perTime[v] = make([][]float64, len(times))
		for r := 0; r < opts.runs(); r++ {
			s := series[idx]
			idx++
			peak, total := 0, 0
			for ti, count := range s {
				perTime[v][ti] = append(perTime[v][ti], float64(count))
				if count > peak {
					peak = count
				}
				total += count
			}
			opts.sample(cell, "peak_false_susp", r, float64(peak))
			opts.sample(cell, "false_susp_total", r, float64(total))
		}
	}
	for ti, at := range times {
		t.AddRow(fmt.Sprintf("%ds", int(at/time.Second)),
			famCount(perTime[0][ti]), famCount(perTime[1][ti]))
	}
	return t, nil
}
