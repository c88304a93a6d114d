package phiaccrual

import (
	"math"
	"time"
)

// refEstimator is the φ rule as it stood before the horizon: the window holds
// float seconds, every Phi walks it twice and takes an erfc and a log10, and
// every Suspected of a trusted peer asks Phi. It is the oracle the Estimator
// is held to — same answers, same latch, bit-equal φ — and shares with it only
// the EstimatorConfig (after fillDefaults).
type refEstimator struct {
	cfg       *EstimatorConfig
	win       refWindow
	last      time.Duration
	suspected bool
}

type refWindow struct {
	samples []float64 // seconds
	next    int
}

func (w *refWindow) push(v float64, capacity int) {
	if len(w.samples) < capacity {
		w.samples = append(w.samples, v)
		return
	}
	w.samples[w.next] = v
	w.next = (w.next + 1) % capacity
}

func (w *refWindow) meanStd() (mean, std float64) {
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
	return mean, std
}

func (e *refEstimator) Observe(at time.Duration) {
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

func (e *refEstimator) Phi(now time.Duration) float64 {
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

func (e *refEstimator) Suspected(now time.Duration) bool {
	if !e.suspected && e.Phi(now) >= e.cfg.Threshold {
		e.suspected = true
	}
	return e.suspected
}

func (e *refEstimator) Prime(now time.Duration) time.Duration {
	e.win.push(e.cfg.Interval.Seconds(), e.cfg.WindowSize)
	e.last = now
	return 0
}

func (e *refEstimator) Resume(fresh bool, now time.Duration) time.Duration {
	if fresh {
		e.win = refWindow{samples: e.win.samples[:0]}
		e.suspected = false
		return e.Prime(now)
	}
	e.last = now
	return 0
}

func (e *refEstimator) CopyTo(dst *refEstimator) {
	samples := append(dst.win.samples[:0], e.win.samples...)
	*dst = *e
	dst.win.samples = samples
}
