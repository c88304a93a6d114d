package phiaccrual

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// twin is the Estimator and the oracle it is held to, over one shared config,
// driven in lockstep. scratch is where probes run: a destination that the
// previous probe left dirty, so every probe is also a CopyTo.
type twin struct {
	cfg     *EstimatorConfig
	e       Estimator
	r       refEstimator
	scratch struct {
		e Estimator
		r refEstimator
	}
}

func newTwin(t testing.TB, cfg EstimatorConfig, start time.Duration) *twin {
	t.Helper()
	e, err := NewEstimator(cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	w := &twin{cfg: e.cfg, e: *e, r: refEstimator{cfg: e.cfg}}
	w.r.Prime(start)
	return w
}

func (w *twin) observe(at time.Duration)           { w.e.Observe(at); w.r.Observe(at) }
func (w *twin) prime(now time.Duration)            { w.e.Prime(now); w.r.Prime(now) }
func (w *twin) resume(fresh bool, d time.Duration) { w.e.Resume(fresh, d); w.r.Resume(fresh, d) }

// probe asks both rules about now — on copies if the twin is to stay as it
// is — and fails unless φ is bit-equal and the answer and the latch agree,
// on the first call and on the one after it.
func (w *twin) probe(t testing.TB, now time.Duration, keep bool) {
	t.Helper()
	e, r := &w.e, &w.r
	if keep {
		w.e.CopyTo(&w.scratch.e)
		w.r.CopyTo(&w.scratch.r)
		e, r = &w.scratch.e, &w.scratch.r
	}
	if got, want := e.Phi(now), r.Phi(now); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Phi(%d) = %v, reference %v (last %d, horizon %d)", now, got, want, e.last, e.horizon)
	}
	for call := 1; call <= 2; call++ {
		if got, want := e.Suspected(now), r.Suspected(now); got != want || e.suspected != r.suspected {
			t.Fatalf("call %d: Suspected(%d) = %v (latch %v), reference %v (latch %v): last %d, horizon %d, φ %v, threshold %v",
				call, now, got, e.suspected, want, r.suspected, e.last, e.horizon, r.Phi(now), w.cfg.Threshold)
		}
	}
}

// crossing is the first instant at which the reference's φ reaches the
// threshold.
func (w *twin) crossing() (at time.Duration, ok bool) {
	return firstReached(w.r.last, func(now time.Duration) bool { return w.r.Phi(now) >= w.cfg.Threshold })
}

// horizonHolds is the horizon's contract: one ns before it the reference's φ
// is below the threshold.
func (w *twin) horizonHolds(t testing.TB) {
	t.Helper()
	if h := w.e.horizon; h != 0 {
		if phi := w.r.Phi(h - 1); !(phi < w.cfg.Threshold) {
			t.Fatalf("reference φ = %v one ns before the horizon %d (last %d), threshold %v", phi, h, w.e.last, w.cfg.Threshold)
		}
	}
}

// check holds the twin's present state to the oracle: the horizon's own
// contract, then probes on both sides of the reference's crossing, at the
// horizon, and at times drawn from rng.
func (w *twin) check(t testing.TB, rng *rand.Rand) {
	t.Helper()
	w.horizonHolds(t)
	if h := w.e.horizon; h != 0 {
		w.probe(t, h-1, true)
		w.probe(t, h, true)
	}
	span := 4 * w.cfg.Interval
	if at, ok := w.crossing(); ok {
		for d := time.Duration(-2); d <= 2; d++ {
			w.probe(t, at+d, true)
		}
		span = 2 * (at - w.r.last)
	}
	for i := 0; i < 4; i++ {
		w.probe(t, w.r.last-span/8+time.Duration(rng.Int63n(int64(span)+1)), true)
	}
}

// fuzzThresholds: below log10(2) (no positive quantile), either side of it,
// the usual ones, and past what erfc can express (φ = +Inf alone reaches it).
var fuzzThresholds = []float64{1e-3, 0.3, 0.31, 1, 8, 16, 100, 400}

// runScript interprets data as a configuration (four bytes), a start time
// (one) and a list of two-byte operations on a twin, checked after each.
func runScript(t testing.TB, data []byte) {
	if len(data) < 5 {
		return
	}
	if len(data) > 133 {
		data = data[:133]
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))

	interval := time.Millisecond + time.Duration(data[0])*time.Duration(data[0])*153770 // 1 ms – 10 s
	cfg := EstimatorConfig{Interval: interval, WindowSize: 1 + int(data[1])%200, Threshold: fuzzThresholds[int(data[3])%len(fuzzThresholds)]}
	switch b := time.Duration(data[2]); b % 4 {
	case 1:
		cfg.MinStdDev = 1
	case 2:
		cfg.MinStdDev = interval / 100
	case 3:
		cfg.MinStdDev = interval * (b/4 + 1) / 64
	}
	clock := []time.Duration{0, time.Second, time.Hour, -5 * time.Second}[data[4]%4]
	w := newTwin(t, cfg, clock)
	w.check(t, rng)

	for ops := data[5:]; len(ops) >= 2; ops = ops[2:] {
		arg := time.Duration(ops[1])
		switch ops[0] % 10 {
		case 0: // punctual
			clock += interval
			w.observe(clock)
		case 1: // jittered: 0 to 2 intervals
			clock += interval * arg / 128
			w.observe(clock)
		case 2: // same instant
			w.observe(clock)
		case 3: // out of order: ignored
			w.observe(w.r.last - 1 - arg*time.Millisecond)
		case 4: // an outlier the sums still hold
			clock += 24 * time.Hour
			w.observe(clock)
		case 5: // one they do not
			clock += maxGap + arg*time.Hour
			w.observe(clock)
		case 6:
			clock += arg * interval / 64
			w.prime(clock)
		case 7:
			clock += arg * interval / 16
			w.resume(arg%2 == 0, clock)
		case 8: // carry on from a copy made into a dirty destination
			w.e.CopyTo(&w.scratch.e)
			w.r.CopyTo(&w.scratch.r)
			w.e, w.scratch.e = w.scratch.e, w.e
			w.r, w.scratch.r = w.scratch.r, w.r
		case 9: // a poll that counts: it may latch, and the next sighting then restores
			clock += arg * interval / 8
			w.probe(t, clock, false)
		}
		w.check(t, rng)
	}
}

// FuzzSuspectedMatchesReference drives random scripts of sightings, restarts,
// copies and polls against the Estimator and the walk-every-time rule it
// replaced, and after every step probes both around the instant the
// reference's φ crosses the threshold. The committed corpus
// (testdata/fuzz/FuzzSuspectedMatchesReference) is replayed by plain go test.
func FuzzSuspectedMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}

// randomState is a twin after a random history on a random configuration
// whose threshold has a horizon.
func randomState(t testing.TB, rng *rand.Rand) *twin {
	interval := time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Second)))
	cfg := EstimatorConfig{
		Interval:   interval,
		WindowSize: 1 + rng.Intn(200),
		Threshold:  []float64{0.31, 1, 8, 16, 100, 300}[rng.Intn(6)],
	}
	if rng.Intn(2) == 0 {
		cfg.MinStdDev = 1 + time.Duration(rng.Int63n(int64(interval)))
	}
	clock := time.Duration(rng.Int63n(int64(time.Hour)))
	w := newTwin(t, cfg, clock)
	for n := rng.Intn(2 * cfg.WindowSize); n > 0; n-- {
		switch rng.Intn(10) {
		case 0:
			clock += time.Duration(rng.Int63n(int64(24 * time.Hour)))
		case 1: // same instant
		default:
			clock += time.Duration(rng.Int63n(int64(2 * interval)))
		}
		w.observe(clock)
	}
	return w
}

// TestHorizonBeforeCrossing pins the horizon's contract directly — one ns
// before it the reference's φ is below the threshold — and that it is worth
// having: the crossing follows within 2⁻¹³ of the silence it takes (xGuard is
// 2⁻¹⁴ of the quantile of the lowest threshold here; at 8 the slack is 2⁻²⁰).
func TestHorizonBeforeCrossing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 10000; i++ {
		w := randomState(t, rng)
		h := w.e.horizon
		if h == 0 {
			t.Fatalf("state %d: no horizon (threshold %v, %d samples, %d wide)", i, w.cfg.Threshold, w.e.win.samples.Len(), w.e.win.wide)
		}
		w.horizonHolds(t)
		at, ok := w.crossing()
		if !ok {
			t.Fatalf("state %d: reference never crosses %v", i, w.cfg.Threshold)
		}
		if slack := at - h; slack < 0 || slack > (at-w.r.last)>>13+2 {
			t.Fatalf("state %d: horizon %v after the last sighting, crossing %v: slack %v", i, h-w.r.last, at-w.r.last, slack)
		}
	}
}

// TestNoHorizon: where the quantile or the sums are not to be had, every
// poll goes to Phi.
func TestNoHorizon(t *testing.T) {
	for _, threshold := range []float64{1e-3, 0.3, math.Log10(2), 308, 400} {
		if z := quantile(threshold); z != 0 {
			t.Errorf("quantile(%v) = %v, want none", threshold, z)
		}
	}
	if z := quantile(8); math.Abs(z-5.612) > 1e-3 { // Φ⁻¹(1 − 10⁻⁸)
		t.Errorf("quantile(8) = %v, want 5.612", z)
	}
	e, _ := NewEstimator(EstimatorConfig{Interval: time.Second, WindowSize: maxWindow + 1}, 0)
	if e.horizon != 0 {
		t.Errorf("a window of %d gaps has horizon %v", maxWindow+1, e.horizon)
	}
	e, _ = NewEstimator(EstimatorConfig{Interval: time.Second, WindowSize: 2}, 0)
	for i, want := range []bool{true, false, false, true} { // the wide gap enters, stays, leaves
		at := e.last + time.Second
		if i == 1 {
			at = e.last + maxGap
		}
		e.Observe(at)
		if got := e.horizon != 0; got != want {
			t.Errorf("sighting %d: horizon %v, want one: %v", i, e.horizon, want)
		}
	}
	var unprimed Estimator // latched over an empty window, then sighted
	unprimed.cfg = e.cfg
	latched := unprimed.Suspected(time.Hour)
	if unprimed.Observe(2 * time.Hour); !latched || unprimed.horizon != 0 {
		t.Errorf("an empty window: latched %v, horizon %v", latched, unprimed.horizon)
	}
	e, _ = NewEstimator(EstimatorConfig{Interval: time.Second}, -time.Second)
	if e.horizon != 0 || e.Suspected(-time.Hour) {
		t.Errorf("a negative clock has horizon %v", e.horizon)
	}
}
