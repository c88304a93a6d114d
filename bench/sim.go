package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"asyncfd/internal/exp"
	"asyncfd/internal/scenario"
	"asyncfd/internal/stats"
)

//go:embed workloads/*.json golden/*.txt
var files embed.FS

// defaultSeed is the seed the golden tables were rendered at.
const defaultSeed = 1

// simMinSweeps is the least number of complete sweeps of a full run: two,
// to compare their bytes.
const simMinSweeps = 2

// sweepsDone says when a run has timed enough: a full run at least
// simMinSweeps complete sweeps and on, cell by cell, until cfg.seconds are
// spent; a traced run one sweep, the replica is its business; a smoke run
// two, enough to compare digests.
func sweepsDone(n int, spent time.Duration, cfg runConfig) bool {
	switch {
	case cfg.smoke:
		return n >= 2
	case cfg.trace:
		return n >= 1
	}
	return n >= simMinSweeps && spent >= cfg.seconds
}

// setupsPerSweep is how many more times a timed run sets up before each sweep
// after the first.
const setupsPerSweep = 3

// cellsOf splits a scenario into one scenario per table row: one detector
// and one fault variant of the cluster program, one graph family and size of
// the topology program. The engine seeds every cell from Options.Seed alone,
// so a cell run on its own does the work, and renders the row, it has in the
// whole table. Cells are what a sweep is timed by: a cell takes 0.2 to 1.4 s,
// short enough that some sweep of the run finds the shared host quiet for it.
func cellsOf(sc *scenario.Scenario) []*scenario.Scenario {
	var cells []*scenario.Scenario
	if sc.Measure.Program == scenario.ProgramTopology {
		for _, topo := range sc.Measure.Topologies {
			for _, n := range sc.Measure.Ns {
				cell := *sc
				cell.Measure.Topologies, cell.Measure.Ns = []string{topo}, []int{n}
				cells = append(cells, &cell)
			}
		}
		return cells
	}
	for _, kind := range sc.Cluster.Detectors {
		for _, v := range sc.Variants {
			cell := *sc
			cell.Cluster.Detectors, cell.Variants = []string{kind}, []scenario.Variant{v}
			cells = append(cells, &cell)
		}
	}
	return cells
}

// sweepOutput is what one sweep produced: the table its cells' rows make,
// and how long each cell took.
type sweepOutput struct {
	table     *exp.Table
	text      []byte // rendered table
	rows      []stats.Row
	digest    string    // sha-256 of table text + v2 rows
	wall, cpu []float64 // per cell: ScenarioTable call to table, seconds; CPU of all threads
	events    int64
	partial   bool // stopped before its last cell: timings only
}

// runSweep runs the cells in table order, timing each, and assembles their
// rows into the sweep's table. stop, when not nil, is asked before every
// cell; a sweep it ends early is partial.
func runSweep(cells []*scenario.Scenario, seed int64, stop func() bool) (*sweepOutput, error) {
	st := &exp.EngineStats{}
	samples := &stats.Collector{}
	out := &sweepOutput{}
	for _, cell := range cells {
		if stop != nil && stop() {
			out.partial = true
			return out, nil
		}
		runtime.GC() // every cell starts from the same heap
		start, cpu0 := time.Now(), cpuSeconds()
		tab, err := exp.ScenarioTable(cell, exp.Options{Seed: seed, Parallel: 1, Stats: st, Samples: samples})
		if err != nil {
			return nil, err
		}
		out.wall, out.cpu = append(out.wall, time.Since(start).Seconds()), append(out.cpu, cpuSeconds()-cpu0)
		if out.table == nil {
			out.table = tab
		} else {
			out.table.Rows = append(out.table.Rows, tab.Rows...)
		}
	}
	var buf bytes.Buffer
	if err := out.table.Render(&buf); err != nil {
		return nil, err
	}
	out.text, out.rows, out.events = buf.Bytes(), samples.Rows(), st.Events.Load()
	rows, err := json.Marshal(out.rows)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(append(append([]byte(nil), out.text...), rows...))
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// quietSum adds up, cell by cell, the shortest time any sweep took for the
// cell: the sweep's time on a quiet host. The work of a cell is the same in
// every sweep, and the shared host only ever adds to its time.
func quietSum(sweeps []*sweepOutput, times func(*sweepOutput) []float64) float64 {
	total := 0.0
	for c := range times(sweeps[0]) {
		var v []float64
		for _, sw := range sweeps {
			if t := times(sw); c < len(t) {
				v = append(v, t[c])
			}
		}
		total += slices.Min(v)
	}
	return total
}

// simSetup is one pass of what a user waits for before a sweep can start:
// the config compiled at full and quick size and a quick-size warm pass.
func simSetup(data []byte, seed int64) (full, quick *scenario.Scenario, parse time.Duration, err error) {
	start := time.Now()
	if full, err = scenario.Parse(data, false); err != nil {
		return nil, nil, 0, err
	}
	parse = time.Since(start)
	if quick, err = scenario.Parse(data, true); err != nil {
		return nil, nil, 0, err
	}
	if _, err := runSweep([]*scenario.Scenario{quick}, seed, nil); err != nil {
		return nil, nil, 0, err
	}
	return full, quick, parse, nil
}

// runSim runs one sim workload: repeated set-up, then timed sweeps of the
// full config, cell by cell, every sweep's digest equal, then the output
// checks. A traced run goes on to the traced replica of each cell's first
// replicate.
func runSim(name string, cfg runConfig) (*result, error) {
	data, err := files.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, err
	}
	res := newResult(name, cfg.seed, cfg.trace)

	var sc *scenario.Scenario
	var setupS, parseMS []float64
	setUp := func() error {
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		full, quick, parse, err := simSetup(data, cfg.seed)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		parseMS = append(parseMS, float64(parse)/1e6)
		if sc = full; cfg.smoke {
			sc = quick
		}
		return nil
	}
	for begin := time.Now(); !setupsDone(len(setupS), time.Since(begin), cfg.smoke); {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	// Sweeps until the time is up, the last one as far as it gets: its cells
	// count for the timing, its table is not looked at. A timed run sets up a
	// few more times between the sweeps, so that the fastest set-up, like the
	// fastest time of a cell, is looked for all along the run and not in its
	// first second and a half only.
	cells := cellsOf(sc)
	var sweeps []*sweepOutput // all of them; the complete ones first
	complete := 0
	for begin := time.Now(); ; complete++ {
		if complete > 0 && !cfg.smoke && !cfg.trace {
			for i := 0; i < setupsPerSweep; i++ {
				if err := setUp(); err != nil {
					return nil, err
				}
			}
		}
		sw, err := runSweep(cells, cfg.seed, func() bool { return sweepsDone(complete, time.Since(begin), cfg) })
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, sw)
		if sw.partial {
			break
		}
	}
	res.set("setup_s", slices.Min(setupS))
	res.set("scenario.parse_ms", slices.Min(parseMS))
	first := sweeps[0]
	res.set("work_wall_s", quietSum(sweeps, func(sw *sweepOutput) []float64 { return sw.wall }))
	res.set("work_cpu_s", quietSum(sweeps, func(sw *sweepOutput) []float64 { return sw.cpu }))
	res.notef("sweeps %d of %d cells, work_wall_s (the issue's sweep_wall_s) adds up each cell's fastest; events/sweep %d  digest %s", complete, len(cells), first.events, first.digest)
	for i, sw := range sweeps {
		if len(sw.wall) > 0 {
			res.notef("  sweep %d cell wall %.3v s", i, sw.wall)
		}
	}

	// Output checks. Every field of the table is one attempted output.
	fields := 0
	for _, row := range first.table.Rows {
		fields += len(row)
	}
	res.attempted = fields
	for i, sw := range sweeps[1:complete] {
		if sw.digest != first.digest {
			res.problemf("sweep %d digest %s differs from sweep 0 (%s): same seed, different bytes", i+1, sw.digest, first.digest)
			res.failed = fields
		}
	}
	if cfg.seed == defaultSeed && !cfg.smoke {
		golden, err := files.ReadFile("golden/" + name + ".txt")
		if err != nil {
			return nil, err
		}
		if d := diffCells(first.text, golden); d > 0 {
			res.problemf("table differs from golden/%s.txt in %d cells", name, d)
			res.failed += d
		}
	}
	if m := missingDetections(first.table); m > 0 {
		res.problemf("%d table cells report missing detections", m)
		res.failed += m
	}

	if cfg.trace {
		if err := traceSim(sc, cfg, res); err != nil {
			return nil, err
		}
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	res.set("failed_share", float64(res.failed)/float64(res.attempted))
	return res, nil
}

// diffCells counts the whitespace-separated fields in which two rendered
// tables differ (a missing or extra field counts as one).
func diffCells(got, want []byte) int {
	g, w := strings.Fields(string(got)), strings.Fields(string(want))
	if len(g) < len(w) {
		g, w = w, g
	}
	d := len(g) - len(w)
	for i := range w {
		if g[i] != w[i] {
			d++
		}
	}
	return d
}

// missingDetections counts the cells under a "missing" header that are not
// "0".
func missingDetections(t *exp.Table) int {
	n := 0
	for c, header := range t.Columns {
		if header != "missing" {
			continue
		}
		for _, row := range t.Rows {
			if c < len(row) && row[c] != "0" {
				n++
			}
		}
	}
	return n
}

// cellKey names one table cell of a sim workload in notes and errors.
func cellKey(parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return strings.Join(s, "/")
}
