package phiaccrual

import (
	"errors"
	"math"
	"time"
)

// EstimatorConfig parameterizes the φ rule for one monitored pair. The
// fields are the detector Config knobs that concern the rule; NewNode builds
// one from its Config, so zero values take the same defaults on both paths.
type EstimatorConfig struct {
	// Interval is the expected heartbeat period Δ (required; it also
	// primes the inter-arrival window).
	Interval time.Duration
	// Threshold is the suspicion level above which the peer is suspected
	// (default 8).
	Threshold float64
	// WindowSize bounds the inter-arrival sample window (default 200).
	WindowSize int
	// MinStdDev floors the fitted standard deviation (default Interval/20).
	MinStdDev time.Duration
}

// Validate checks the configuration.
func (c EstimatorConfig) Validate() error {
	if c.Interval <= 0 {
		return errors.New("phiaccrual: estimator config: Interval must be positive")
	}
	if c.Threshold < 0 || c.WindowSize < 0 {
		return errors.New("phiaccrual: estimator config: negative Threshold or WindowSize")
	}
	return nil
}

func (c *EstimatorConfig) fillDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 8
	}
	if c.WindowSize == 0 {
		c.WindowSize = 200
	}
	if c.MinStdDev == 0 {
		c.MinStdDev = c.Interval / 20
	}
}

// window is a bounded sample set with memoized mean/variance.
type window struct {
	samples []float64 // seconds
	next    int
	// stats caches the last meanStd result: a monitor re-evaluates φ several
	// times per heartbeat interval, and re-walking an unchanged window
	// dominated large-n sweeps. push invalidates the cache, so the returned
	// floats are always the ones the walk would produce — computed in the
	// same order, just once per window mutation.
	statsValid bool
	mean, std  float64
}

func (w *window) push(v float64, capacity int) {
	w.statsValid = false
	if len(w.samples) < capacity {
		w.samples = append(w.samples, v)
		return
	}
	w.samples[w.next] = v
	w.next = (w.next + 1) % capacity
}

func (w *window) meanStd() (mean, std float64) {
	if w.statsValid {
		return w.mean, w.std
	}
	n := float64(len(w.samples))
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range w.samples {
		sum += v
	}
	mean = sum / n
	var ss float64
	for _, v := range w.samples {
		d := v - mean
		ss += d * d
	}
	std = math.Sqrt(ss / n)
	w.statsValid, w.mean, w.std = true, mean, std
	return mean, std
}

// Estimator is the φ-accrual rule for one monitored peer — the inter-arrival
// window and the threshold on φ — with no Env, goroutine or timer machinery:
// the one implementation of the rule, run by the simulator's Node (as its
// monitor.Rule) and by a shard worker of internal/liveshard, which feeds it
// heartbeat arrival times via Observe and polls Suspected on its scan tick.
// All times are offsets on the caller's clock; the Estimator never reads a
// clock itself.
//
// Two refinements over the textbook rule: the start of monitoring counts as
// a sighting with the window primed by the nominal interval (no instant
// suspicion), and a silence that suspicion proved wrong is not sampled into
// the window.
type Estimator struct {
	cfg       *EstimatorConfig // shared by every peer of one monitor
	win       window
	last      time.Duration // arrival time of the last heartbeat
	suspected bool
}

// NewEstimator builds an estimator primed as if a heartbeat arrived at now.
func NewEstimator(cfg EstimatorConfig, now time.Duration) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	e := &Estimator{cfg: &cfg}
	e.Prime(now)
	return e, nil
}

// Observe records a heartbeat arrival at time at. If the peer was suspected,
// trust is restored and the silence that just ended — typically the peer's
// downtime — is not sampled: one huge outlier would dominate the fitted std
// for as long as it stays in the window, stretching detection of the peer's
// next crash by orders of magnitude. Otherwise the inter-arrival gap enters
// the window. An arrival older than the freshest one (two producers racing
// on one peer) is ignored: its negative gap is no sample, and the silence
// clock never runs backwards.
func (e *Estimator) Observe(at time.Duration) {
	if at < e.last {
		return
	}
	if e.suspected {
		e.suspected = false
	} else {
		e.win.push((at - e.last).Seconds(), e.cfg.WindowSize)
	}
	e.last = at
}

// Phi returns the suspicion level at time now:
// P_later(t) = 0.5 · erfc((t − µ) / (σ·√2)) over the elapsed silence t, with σ
// floored at MinStdDev; φ = −log10(P_later).
func (e *Estimator) Phi(now time.Duration) float64 {
	elapsed := (now - e.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	mean, std := e.win.meanStd()
	if minStd := e.cfg.MinStdDev.Seconds(); std < minStd {
		std = minStd
	}
	p := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(p)
}

// Suspected reports (and latches) whether the peer is suspected at time
// now: φ only grows with silence, so once the threshold is crossed the
// suspicion holds until a heartbeat restores trust via Observe.
func (e *Estimator) Suspected(now time.Duration) bool {
	if !e.suspected && e.Phi(now) >= e.cfg.Threshold {
		e.suspected = true
	}
	return e.suspected
}

// Prime implements monitor.Rule: monitoring starts with a sighting at now
// and the nominal interval as a sample. The window is not emptied — peers
// that started earlier may have been heard already, and those gaps stay. φ
// has no closed-form deadline; the rule is polled.
func (e *Estimator) Prime(now time.Duration) time.Duration {
	e.win.push(e.cfg.Interval.Seconds(), e.cfg.WindowSize)
	e.last = now
	return 0
}

// Resume implements monitor.Rule. Fresh state starts over from an empty
// window; persisted state keeps the window and the latch. Either way the
// restart counts as a sighting: the silence clock restarts at the reboot,
// and the downtime gap must not enter the window as a sample.
func (e *Estimator) Resume(fresh bool, now time.Duration) time.Duration {
	if fresh {
		e.win = window{samples: e.win.samples[:0]}
		e.suspected = false
		return e.Prime(now)
	}
	e.last = now
	return 0
}

// Beat implements monitor.Rule: any heartbeat is a sighting. The flag the
// monitor passes is the one Suspected latched here already.
func (e *Estimator) Beat(_ uint64, now time.Duration, _ bool) (time.Duration, bool) {
	e.Observe(now)
	return 0, true
}

// CopyTo implements monitor.Rule (the window is the only reference field).
func (e *Estimator) CopyTo(dst *Estimator) {
	samples := append(dst.win.samples[:0], e.win.samples...)
	*dst = *e
	dst.win.samples = samples
}
