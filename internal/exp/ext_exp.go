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
		crash   = ident.ID(0)
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
	// Per density, a cell for each variant: the asynchronous detector on the
	// unknown network, and the gossip heartbeat comparator on the same
	// topology.
	var rows []row
	for _, k := range ks {
		r := row{label: []string{strconv.Itoa(2*k + 1)}}
		for _, variant := range []Kind{KindAsync, KindGossip} {
			r.cells = append(r.cells, cell{
				key: fmt.Sprintf("d=%d/%v", 2*k+1, variant),
				job: func(seed int64) (obs, error) {
					c, err := NewCluster(extConfig(variant, topology.Circulant(n, k), seed))
					if err != nil {
						return nil, err
					}
					truth := c.Apply(faults.Schedule{}.CrashAt(crash, crashAt))
					c.RunUntil(horizon)
					opts.record(c.Sim)
					det := crashDetection(c.Members, truth, crash)
					qos.Fold(c.Log, det)
					return obs{}.detection("det", det.Result()), nil
				},
			})
		}
		rows = append(rows, r)
	}
	return runTable(opts, t, rows, func(s series) []string { return s.detection("det") })
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
	t := &Table{
		ID:    "X2",
		Title: "EXTENSION: total false suspicions over time while a node moves to a new range",
		Note: fmt.Sprintf("n=%d circulant d=7, f=%d; node p0 detaches at 30s, reattaches across the ring at 60s; "+
			"shape of RR-6088 Fig. 3", n, extF),
		Columns: []string{"t", "async", "gossip-FT"},
	}
	var times []time.Duration
	for s := 25; s <= 145; s += 2 {
		times = append(times, time.Duration(s)*time.Second)
	}
	// New range on the other side of the ring: d−1 consecutive nodes.
	var newRange ident.Set
	for i := 0; i < 2*k; i++ {
		newRange.Add(ident.ID(n/2 - k + i))
	}
	var cells []cell
	for _, variant := range []Kind{KindAsync, KindGossip} {
		cells = append(cells, cell{
			key: fmt.Sprintf("mobility/%v", variant),
			job: func(seed int64) (obs, error) {
				cfg := extConfig(variant, topology.Circulant(n, k), seed)
				cfg.Rebroadcast, cfg.Mobility = time.Second, true
				c, err := NewCluster(cfg)
				if err != nil {
					return nil, err
				}
				c.RelocateAt(0, newRange.Clone(), away, back)
				c.RunUntil(horizon)
				opts.record(c.Sim)
				// Nobody crashes: every suspicion is false.
				series := qos.NewFalseSuspicionSeries(&qos.GroundTruth{}, times)
				qos.Fold(c.Log, series)
				o, peak, total := falseSuspicions(series, times)
				return o.add("peak_false_susp", float64(peak)).add("false_susp_total", float64(total)), nil
			},
		})
	}
	return falseSuspicionTable(opts, t, times, cells)
}
