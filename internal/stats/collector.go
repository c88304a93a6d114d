package stats

import (
	"sort"
	"sync"
)

// Sample is one scalar observation: the value a metric took in one seed
// replicate of one table cell (e.g. cell "n=128/async", metric
// "det_avg_ms", replicate 3).
type Sample struct {
	Cell   string  // cell key, stable across runs (e.g. "n=128/async")
	Metric string  // metric name (e.g. "det_avg_ms")
	Rep    int     // replicate index within the cell's seed family
	Value  float64 // observed value
}

// Collector accumulates samples from concurrently executing experiment
// cells. Add is safe for concurrent use; Rows produces the aggregate in a
// canonical order (cell, then metric, with each family's samples folded in
// replicate order), so the output is byte-for-byte independent of the
// worker count that produced the samples — the engine's serial/parallel
// identity guarantee, extended to the v2 bench rows.
type Collector struct {
	mu      sync.Mutex
	samples []Sample
}

// Add records one observation.
func (c *Collector) Add(cell, metric string, rep int, value float64) {
	c.mu.Lock()
	c.samples = append(c.samples, Sample{Cell: cell, Metric: metric, Rep: rep, Value: value})
	c.mu.Unlock()
}

// Samples returns a copy of the raw samples recorded so far.
func (c *Collector) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// Row is the aggregate of one (cell, metric) seed family.
type Row struct {
	Cell   string
	Metric string
	Summary
}

// Rows aggregates every (cell, metric) family recorded so far into
// deterministic summary rows, sorted by cell then metric. Samples within a
// family are ordered by replicate index before summarizing, so arrival
// order (and hence scheduling) cannot influence the result.
func (c *Collector) Rows() []Row {
	c.mu.Lock()
	samples := make([]Sample, len(c.samples))
	copy(samples, c.samples)
	c.mu.Unlock()

	sort.SliceStable(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		return a.Rep < b.Rep
	})

	var rows []Row
	for i := 0; i < len(samples); {
		j := i
		for j < len(samples) && samples[j].Cell == samples[i].Cell && samples[j].Metric == samples[i].Metric {
			j++
		}
		values := make([]float64, 0, j-i)
		for _, s := range samples[i:j] {
			values = append(values, s.Value)
		}
		rows = append(rows, Row{
			Cell:    samples[i].Cell,
			Metric:  samples[i].Metric,
			Summary: Summarize(values),
		})
		i = j
	}
	return rows
}
