package stats

import (
	"math"
	"testing"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestStreamGoldenValues pins mean/variance/stderr/CI against hand-computed
// values for a known small sample: {1,2,3,4,5} has mean 3, sample variance
// 2.5, stddev 1.58114, stderr 0.70711 and, with t(4) = 2.776, a 95% CI
// half-width of 1.96293.
func TestStreamGoldenValues(t *testing.T) {
	var s Stream
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if !close(s.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if !close(s.Variance(), 2.5, 1e-12) {
		t.Errorf("Variance = %v, want 2.5", s.Variance())
	}
	if !close(s.StdDev(), math.Sqrt(2.5), 1e-12) {
		t.Errorf("StdDev = %v, want √2.5", s.StdDev())
	}
	wantSE := math.Sqrt(2.5) / math.Sqrt(5)
	if !close(s.StdErr(), wantSE, 1e-12) {
		t.Errorf("StdErr = %v, want %v", s.StdErr(), wantSE)
	}
	if !close(s.CI95(), 2.776*wantSE, 1e-9) {
		t.Errorf("CI95 = %v, want %v", s.CI95(), 2.776*wantSE)
	}
}

// TestStreamGoldenMeasurements uses a classic measurement-style family:
// {4.1, 4.3, 3.9, 4.2, 4.0} has mean 4.1, sample variance 0.025 and stderr
// ≈ 0.0707107.
func TestStreamGoldenMeasurements(t *testing.T) {
	var s Stream
	for _, x := range []float64{4.1, 4.3, 3.9, 4.2, 4.0} {
		s.Add(x)
	}
	if !close(s.Mean(), 4.1, 1e-12) {
		t.Errorf("Mean = %v, want 4.1", s.Mean())
	}
	if !close(s.Variance(), 0.025, 1e-12) {
		t.Errorf("Variance = %v, want 0.025", s.Variance())
	}
	if !close(s.StdErr(), 0.07071067811865475, 1e-12) {
		t.Errorf("StdErr = %v", s.StdErr())
	}
}

// TestStreamDegenerateFamilies: R < 2 has no spread and no interval.
func TestStreamDegenerateFamilies(t *testing.T) {
	var empty Stream
	if empty.Mean() != 0 || empty.Variance() != 0 || empty.StdErr() != 0 || empty.CI95() != 0 {
		t.Error("empty stream must report all zeros")
	}
	var one Stream
	one.Add(42)
	if one.Mean() != 42 {
		t.Errorf("Mean = %v, want 42", one.Mean())
	}
	if one.Variance() != 0 || one.StdErr() != 0 || one.CI95() != 0 {
		t.Error("single-sample family must have zero spread and no CI")
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 12.706}, {2, 4.303}, {4, 2.776}, {9, 2.262}, {29, 2.045}, {30, 2.042},
		{35, 2.042}, // conservative: the df=30 entry
		{40, 2.021}, {59, 2.021}, {60, 2.000}, {119, 2.000}, {120, 1.980}, {10000, 1.980},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Monotone non-increasing over df ≥ 1: a bigger family never widens
	// the interval.
	prev := TCritical95(1)
	for df := 2; df <= 200; df++ {
		cur := TCritical95(df)
		if cur > prev {
			t.Fatalf("TCritical95 increased at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v, want 7", got)
	}
	// Ties: equal order statistics interpolate to themselves.
	ties := []float64{1, 1, 1, 5}
	if got := Percentile(ties, 0.5); !close(got, 1, 1e-12) {
		t.Errorf("p50 of %v = %v, want 1", ties, got)
	}
	allSame := []float64{3, 3, 3, 3}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := Percentile(allSame, p); got != 3 {
			t.Errorf("p%v of all-ties = %v, want 3", p, got)
		}
	}
	// Linear interpolation (R type 7): p50 of {1,2,3,4} is 2.5, p25 is 1.75.
	quad := []float64{4, 2, 1, 3} // unsorted on purpose: input must not matter
	if got := Percentile(quad, 0.5); !close(got, 2.5, 1e-12) {
		t.Errorf("p50 of {1..4} = %v, want 2.5", got)
	}
	if got := Percentile(quad, 0.25); !close(got, 1.75, 1e-12) {
		t.Errorf("p25 of {1..4} = %v, want 1.75", got)
	}
	// Clamping and endpoints.
	if got := Percentile(quad, -1); got != 1 {
		t.Errorf("p<0 must clamp to min, got %v", got)
	}
	if got := Percentile(quad, 2); got != 4 {
		t.Errorf("p>1 must clamp to max, got %v", got)
	}
	// The input slice is left untouched.
	if quad[0] != 4 || quad[3] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarizeGolden(t *testing.T) {
	sum := Summarize([]float64{1, 2, 3, 4, 5})
	if sum.N != 5 || sum.Min != 1 || sum.Max != 5 {
		t.Fatalf("N/Min/Max = %d/%v/%v", sum.N, sum.Min, sum.Max)
	}
	if !close(sum.Mean, 3, 1e-12) || !close(sum.P50, 3, 1e-12) {
		t.Errorf("Mean/P50 = %v/%v, want 3/3", sum.Mean, sum.P50)
	}
	if !close(sum.P99, 4.96, 1e-12) { // h = 4×0.99 = 3.96 → 4 + 0.96×(5−4)
		t.Errorf("P99 = %v, want 4.96", sum.P99)
	}
	wantCI := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if !close(sum.CI95, wantCI, 1e-9) {
		t.Errorf("CI95 = %v, want %v", sum.CI95, wantCI)
	}
	// R < 2 edge: a single-seed family summarizes to itself with no spread.
	one := Summarize([]float64{2.5})
	if one.N != 1 || one.Mean != 2.5 || one.P50 != 2.5 || one.P99 != 2.5 || one.StdErr != 0 || one.CI95 != 0 {
		t.Errorf("single-seed summary = %+v", one)
	}
	zero := Summarize(nil)
	if zero != (Summary{}) {
		t.Errorf("empty summary = %+v, want zero value", zero)
	}
}

// TestSummarizeGoldenNewMetricFamilies pins Summarize/Percentile against
// hand-computed golden values on sample shapes matching the newly sampled
// v2 metric families (PR 4): an E7 decision-latency family, an E3
// mistake-duration family, and an E8 propagation-spread family whose R=5
// values carry ties.
func TestSummarizeGoldenNewMetricFamilies(t *testing.T) {
	// decision_ms-shaped family: {2012.0, 2049.5, 1998.0, 2103.0, 2020.5}.
	// Sum = 10183, mean = 2036.6; squared deviations sum = 6929.7 →
	// sample variance 1732.425, stderr √(1732.425/5) = 18.61411…;
	// t(4) = 2.776 → ci95 = 51.67278…; sorted {1998, 2012, 2020.5,
	// 2049.5, 2103}: p50 = 2020.5, p99 = 2049.5 + 0.96×53.5 = 2100.86.
	dec := Summarize([]float64{2012.0, 2049.5, 1998.0, 2103.0, 2020.5})
	if dec.N != 5 || dec.Min != 1998.0 || dec.Max != 2103.0 {
		t.Fatalf("decision family N/Min/Max = %d/%v/%v", dec.N, dec.Min, dec.Max)
	}
	if !close(dec.Mean, 2036.6, 1e-9) {
		t.Errorf("decision mean = %v, want 2036.6", dec.Mean)
	}
	if !close(dec.StdErr, math.Sqrt(1732.425/5), 1e-9) {
		t.Errorf("decision stderr = %v, want %v", dec.StdErr, math.Sqrt(1732.425/5))
	}
	if !close(dec.CI95, 2.776*math.Sqrt(1732.425/5), 1e-9) {
		t.Errorf("decision ci95 = %v", dec.CI95)
	}
	if !close(dec.P50, 2020.5, 1e-12) || !close(dec.P99, 2100.86, 1e-9) {
		t.Errorf("decision p50/p99 = %v/%v, want 2020.5/2100.86", dec.P50, dec.P99)
	}

	// mistake_dur_ms-shaped family: {12.0, 14.5, 13.2, 15.1, 12.9}.
	// Mean 13.54; squared deviations sum = 6.252 → variance 1.563,
	// stderr √(1.563/5) = 0.5591064…, ci95 = 2.776 × stderr.
	dur := Summarize([]float64{12.0, 14.5, 13.2, 15.1, 12.9})
	if !close(dur.Mean, 13.54, 1e-12) {
		t.Errorf("duration mean = %v, want 13.54", dur.Mean)
	}
	if !close(dur.StdErr, math.Sqrt(1.563/5), 1e-9) {
		t.Errorf("duration stderr = %v, want %v", dur.StdErr, math.Sqrt(1.563/5))
	}
	if !close(dur.CI95, 2.776*math.Sqrt(1.563/5), 1e-9) {
		t.Errorf("duration ci95 = %v", dur.CI95)
	}
	if !close(dur.P50, 13.2, 1e-12) {
		t.Errorf("duration p50 = %v, want 13.2", dur.P50)
	}

	// spread_ms-shaped family with ties: {40, 40, 55, 55, 70}: mean 52,
	// p50 = 55 (middle order statistic), p25 = 40 (tie interpolates to
	// itself), p99 = 55 + 0.96×15 = 69.4.
	spread := []float64{55, 40, 70, 40, 55} // unsorted: order must not matter
	sum := Summarize(spread)
	if !close(sum.Mean, 52, 1e-12) || !close(sum.P50, 55, 1e-12) {
		t.Errorf("spread mean/p50 = %v/%v, want 52/55", sum.Mean, sum.P50)
	}
	if got := Percentile(spread, 0.25); !close(got, 40, 1e-12) {
		t.Errorf("spread p25 = %v, want 40 (tie)", got)
	}
	if !close(sum.P99, 69.4, 1e-9) {
		t.Errorf("spread p99 = %v, want 69.4", sum.P99)
	}
	if sum.Min != 40 || sum.Max != 70 {
		t.Errorf("spread min/max = %v/%v", sum.Min, sum.Max)
	}
}

// TestCollectorDeterministicRows: rows must not depend on sample arrival
// order — only on (cell, metric, rep).
func TestCollectorDeterministicRows(t *testing.T) {
	build := func(order []int) []Row {
		c := &Collector{}
		type obs struct {
			cell, metric string
			rep          int
			v            float64
		}
		all := []obs{
			{"n=8/async", "det_avg_ms", 0, 10},
			{"n=8/async", "det_avg_ms", 1, 12},
			{"n=8/async", "det_avg_ms", 2, 11},
			{"n=8/async", "det_max_ms", 0, 20},
			{"n=4/chen", "det_avg_ms", 0, 30},
		}
		for _, i := range order {
			o := all[i]
			c.Add(o.cell, o.metric, o.rep, o.v)
		}
		return c.Rows()
	}
	a := build([]int{0, 1, 2, 3, 4})
	b := build([]int{4, 2, 0, 3, 1})
	if len(a) != 3 {
		t.Fatalf("rows = %d, want 3 families", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across arrival orders:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Canonical order: cells sorted, then metrics.
	if a[0].Cell != "n=4/chen" || a[1].Metric != "det_avg_ms" || a[2].Metric != "det_max_ms" {
		t.Errorf("unexpected row order: %+v", a)
	}
	if got := a[1].Summary.Mean; !close(got, 11, 1e-12) {
		t.Errorf("family mean = %v, want 11", got)
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	c := &Collector{}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for r := 0; r < 100; r++ {
				c.Add("cell", "metric", g*100+r, float64(r))
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(c.Samples()); got != 800 {
		t.Fatalf("%d samples, want 800", got)
	}
	rows := c.Rows()
	if len(rows) != 1 || rows[0].N != 800 {
		t.Fatalf("rows = %+v", rows)
	}
}
