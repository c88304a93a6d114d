package phiaccrual

import (
	"errors"
	"math"
	"math/bits"
	"time"

	"asyncfd/internal/ring"
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

	// z is the horizon's quantile (see quantile), derived from Threshold and
	// WindowSize by fillDefaults; 0 means the estimators get no horizon.
	z float64
}

// Validate checks the configuration. A NaN threshold is never reached and an
// infinite one never finitely, so both would switch the detector off without
// saying so; a negative floor is no floor.
func (c EstimatorConfig) Validate() error {
	if c.Interval <= 0 {
		return errors.New("phiaccrual: estimator config: Interval must be positive")
	}
	if !(c.Threshold >= 0) || math.IsInf(c.Threshold, 1) {
		return errors.New("phiaccrual: estimator config: Threshold must be finite and not negative")
	}
	if c.WindowSize < 0 || c.MinStdDev < 0 {
		return errors.New("phiaccrual: estimator config: negative WindowSize or MinStdDev")
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
	if c.WindowSize <= maxWindow {
		c.z = quantile(c.Threshold)
	}
}

// The horizon (see Estimator) is worked out from integer sums of the window's
// gaps, which hold exactly while the window has at most maxWindow gaps of less
// than maxGap (39 h) each: Σ gap stays below 2⁶³ and maxWindow·Σ gap² below
// 2¹²⁶. A wider window gets no horizon, and a wider gap (or the negative one of
// an overflowed subtraction) suspends it for as long as it stays in the window.
const (
	maxWindow = 1 << 16
	maxGap    = 1 << 47
)

// window is the inter-arrival gaps — a ring.Ring, four bytes a gap while the
// gaps stay within ±2³¹ ns of the window's first — with their running sums.
type window struct {
	samples ring.Ring
	// sum and sqHi:sqLo are Σ gap and Σ gap² over samples, in ns and ns²:
	// added on push, subtracted on evict. The arithmetic wraps, so the sums
	// are exact again as soon as the window's true sums fit — which wide == 0
	// says they do.
	sum        time.Duration
	sqHi, sqLo uint64
	wide       int // samples not in [0, maxGap)
}

func (w *window) push(v time.Duration, capacity int) {
	// The evicted gap, or 0 when the window had room: a 0 changes no sum.
	old := w.samples.Push(v, capacity)
	w.sum -= old
	hi, lo := bits.Mul64(uint64(old), uint64(old))
	var borrow uint64
	w.sqLo, borrow = bits.Sub64(w.sqLo, lo, 0)
	w.sqHi, _ = bits.Sub64(w.sqHi, hi, borrow)
	if uint64(old) >= maxGap {
		w.wide--
	}
	w.sum += v
	hi, lo = bits.Mul64(uint64(v), uint64(v))
	var carry uint64
	w.sqLo, carry = bits.Add64(w.sqLo, lo, 0)
	w.sqHi, _ = bits.Add64(w.sqHi, hi, carry)
	if uint64(v) >= maxGap {
		w.wide++
	}
}

// meanStd is the rule's fit of the window: a walk over the gaps in storage
// order, index 0 to Len−1, in float seconds. The order and the float type are
// part of the result's last bits, and every committed table depends on those.
func (w *window) meanStd() (mean, std float64) {
	n := w.samples.Len()
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for i := range n {
		sum += w.samples.At(i).Seconds()
	}
	mean = sum / float64(n)
	var ss float64
	for i := range n {
		d := w.samples.At(i).Seconds() - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n))
}

// level is φ at x = (t − µ)/(σ·√2): −log10 of the normal tail 0.5·erfc(x).
func level(x float64) float64 {
	p := 0.5 * math.Erfc(x)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(p)
}

// The horizon's margins. level is increasing in x with slope at least 0.49
// from x = 0 on, so stepping xGuard back from a point where it reads below
// the threshold leaves 2⁻²¹ of room for its own error, which for thresholds
// up to maxLevel is a relative 2⁻³⁰: a million times what math.Erfc and
// math.Log10 commit. reachGuard shortens the whole reach by a relative 2⁻²⁰
// and so covers what rounding does to Phi's operands: its walked mean is
// within a relative 2⁻³⁶ of the exact one (maxWindow + 3 roundings), its
// walked deviation falls short of the exact one by at most 2⁻³⁶ of the
// window's root mean square (which is at most mean + deviation, z ≤ 38 times
// over), and the elapsed time, the quotient and the integer-to-float
// conversions in reach add a few 2⁻⁵³ more.
const (
	xGuard     = 0x1p-20
	reachGuard = 1 - 0x1p-20
	// maxLevel: −log10 of the smallest normal float64 is 307.65; past it
	// erfc underflows and the relative error bound is gone.
	maxLevel = 307
)

// quantile returns z > 0, in standard deviations, such that Phi reads below
// threshold whenever the silence is below µ + z·σ — √2·erfcinv(2·10^−threshold)
// less xGuard, bisected on level itself so that it holds for the functions Phi
// calls — or 0 if there is none: level(0) = log10(2) already reaches the
// threshold, or the threshold is past maxLevel.
func quantile(threshold float64) float64 {
	lo, hi := 0.0, 32.0 // erfc(27.3) is 0
	if level(lo) >= threshold || threshold > maxLevel {
		return 0
	}
	for hi-lo > xGuard {
		if mid := (lo + hi) / 2; level(mid) < threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt2 * math.Max(lo-xGuard, 0)
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
//
// A monitor polls Suspected several times per heartbeat interval, nearly
// always to learn that a peer heard from a moment ago is nowhere near the
// threshold. The horizon answers those polls without fitting the window: an
// instant, moved in O(1) by every sighting, strictly before which Phi is
// below the threshold. From the horizon on, Phi decides — so the horizon can
// delay no suspicion and cause none, only spare the evaluation.
type Estimator struct {
	cfg  *EstimatorConfig // shared by every peer of one monitor
	win  window
	last time.Duration // arrival time of the last heartbeat
	// horizon is last + (µ + z·max(σ, MinStdDev))·reachGuard, with µ and σ
	// exact from the window's integer sums; 0 when there is none, which
	// sends every poll to Phi.
	horizon   time.Duration
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

// sighted moves the silence clock to at and the horizon with it. Sightings
// past farthest (146 years; or negative) get none, so that neither the
// horizon nor, below it, Phi's now − last can overflow; nor does a reach past
// farthest, or the NaN that an empty window's 0/0 makes.
func (e *Estimator) sighted(at time.Duration) {
	const farthest = 1 << 62
	e.last, e.horizon = at, 0
	w := &e.win
	n := w.samples.Len()
	if e.cfg.z == 0 || w.wide != 0 || uint64(at) >= farthest {
		return
	}
	// n²·variance = n·Σ gap² − (Σ gap)², exactly.
	hi, lo := bits.Mul64(w.sqLo, uint64(n))
	hi += w.sqHi * uint64(n)
	sumHi, sumLo := bits.Mul64(uint64(w.sum), uint64(w.sum))
	lo, borrow := bits.Sub64(lo, sumLo, 0)
	hi, _ = bits.Sub64(hi, sumHi, borrow)
	// The floor usually holds (regular traffic), and then no root is taken.
	dev := float64(n) * float64(e.cfg.MinStdDev) // n·σ, floored
	if v := float64(hi)*0x1p64 + float64(lo); v > dev*dev {
		dev = math.Sqrt(v)
	}
	if reach := (float64(w.sum) + e.cfg.z*dev) / float64(n) * reachGuard; reach < farthest {
		e.horizon = at + time.Duration(reach)
	}
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
		e.win.push(at-e.last, e.cfg.WindowSize)
	}
	e.sighted(at)
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
	return level((elapsed - mean) / (std * math.Sqrt2))
}

// Suspected reports (and latches) whether the peer is suspected at time
// now: φ only grows with silence, so once the threshold is crossed the
// suspicion holds until a heartbeat restores trust via Observe. Before the
// horizon nothing is evaluated; the unsigned compare sends a negative now,
// whose distance from last could overflow, to Phi as well.
func (e *Estimator) Suspected(now time.Duration) bool {
	if !e.suspected && uint64(now) >= uint64(e.horizon) && e.Phi(now) >= e.cfg.Threshold {
		e.suspected = true
	}
	return e.suspected
}

// Prime implements monitor.Rule: monitoring starts with a sighting at now
// and the nominal interval as a sample. The window is not emptied — peers
// that started earlier may have been heard already, and those gaps stay. No
// deadline is returned and the rule stays polled although the horizon is
// nearly one: Phi crosses the threshold between two instants of the clock,
// but the monitor raises the suspicion at its next poll, and the poll grid —
// with the order in which one poll emits the suspicions of one instant — is
// part of every committed trace.
func (e *Estimator) Prime(now time.Duration) time.Duration {
	e.win.push(e.cfg.Interval, e.cfg.WindowSize)
	e.sighted(now)
	return 0
}

// Resume implements monitor.Rule. Fresh state starts over from an empty
// window; persisted state keeps the window and the latch. Either way the
// restart counts as a sighting: the silence clock restarts at the reboot,
// and the downtime gap must not enter the window as a sample.
func (e *Estimator) Resume(fresh bool, now time.Duration) time.Duration {
	if fresh {
		e.win.samples.Reset()
		e.win = window{samples: e.win.samples}
		e.suspected = false
		return e.Prime(now)
	}
	e.sighted(now)
	return 0
}

// Beat implements monitor.Rule: any heartbeat is a sighting. The flag the
// monitor passes is the one Suspected latched here already.
func (e *Estimator) Beat(_ uint64, now time.Duration, _ bool) (time.Duration, bool) {
	e.Observe(now)
	return 0, true
}

// CopyTo implements monitor.Rule (the window's ring is the only reference
// field; its sums and the horizon travel by value).
func (e *Estimator) CopyTo(dst *Estimator) {
	samples := dst.win.samples
	*dst = *e
	dst.win.samples = samples
	e.win.samples.CopyTo(&dst.win.samples)
}
