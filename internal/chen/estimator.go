package chen

import (
	"time"

	"asyncfd/internal/ring"
)

// windowSize is how many heartbeats a node's expected-arrival estimate
// averages over.
const windowSize = 100

// params is what every peer's Estimator of one monitor reads.
type params struct {
	interval, alpha time.Duration
	window          int // ring capacity: windowSize in a node
}

// Estimator is the NFD-E rule for one monitored peer — a window of recent
// heartbeats and the expected arrival EA of the next one — with no Env,
// goroutine or timer machinery. It is the monitor.Rule the simulator's Node
// runs. Unlike the Θ and φ rules it needs the heartbeat's sequence number,
// which is why internal/liveshard (whose ingest carries arrival times only)
// cannot run it yet.
//
// Heartbeat s arriving at A is kept as the one value EA reads of it, its lag
// A − Δ·s behind the sender's schedule: one ring.Ring sample (four bytes
// while the lags stay within ±2³¹ ns of the window's first) and one running
// sum.
type Estimator struct {
	p      *params   // shared by every peer of one monitor
	lags   ring.Ring // A − Δ·s, bounded by p.window
	maxSeq uint64
	// sum is Σ lags, maintained by push so expectedArrival is O(1) instead
	// of re-walking the window on every heartbeat. Integer arithmetic, so
	// the incremental sum equals the walked one exactly (modulo 2⁶⁴, as
	// every int64 sum here is).
	sum time.Duration
	// bootstrap marks a window holding only the synthetic restart sample;
	// the first real heartbeat replaces it wholesale, because mixing the
	// restart-era sample with post-restart sequence numbers would corrupt
	// the expected-arrival estimate.
	bootstrap bool
}

// push takes a heartbeat's lag into the window. maxSeq is the caller's: Beat
// takes only a seq above it, and Prime's 0 never is.
func (e *Estimator) push(lag time.Duration) {
	e.sum += lag - e.lags.Push(lag, e.p.window) // less the evicted lag, if any
}

// rebase empties the window (and its running sum) so the next push starts a
// fresh estimation era.
func (e *Estimator) rebase() {
	e.lags.Reset()
	e.sum = 0
}

// expectedArrival estimates EA for heartbeat maxSeq+1: the mean lag over the
// window, plus Δ·(maxSeq+1).
func (e *Estimator) expectedArrival() time.Duration {
	n := e.lags.Len()
	if n == 0 {
		return 0
	}
	return e.sum/time.Duration(n) + time.Duration(e.maxSeq+1)*e.p.interval
}

// deadline is EA + α: the instant from which the next heartbeat is overdue.
func (e *Estimator) deadline() time.Duration { return e.expectedArrival() + e.p.alpha }

// Suspected implements monitor.Rule: the clock has passed EA + α.
func (e *Estimator) Suspected(now time.Duration) bool { return now > e.deadline() }

// Prime implements monitor.Rule: monitoring starts as if heartbeat 0 had
// just arrived. The sample joins whatever the window holds — peers that
// started earlier may have been heard already — and the first real
// heartbeats join it in turn.
func (e *Estimator) Prime(now time.Duration) time.Duration {
	e.push(now) // heartbeat 0 lags by its arrival
	return e.deadline()
}

// Resume implements monitor.Rule. Fresh state drops the window and
// re-bootstraps with a grace period of Δ + α; persisted state keeps the
// window, whose now-stale expected arrival typically makes the monitor
// suspect everyone until fresh heartbeats arrive — the honest cost of
// resuming NFD-E from old state.
func (e *Estimator) Resume(fresh bool, now time.Duration) time.Duration {
	if fresh {
		e.rebase()
		e.maxSeq, e.bootstrap = 0, true
		return e.Prime(now)
	}
	return e.deadline()
}

// Beat implements monitor.Rule.
func (e *Estimator) Beat(seq uint64, now time.Duration, suspected bool) (time.Duration, bool) {
	if seq <= e.maxSeq {
		return 0, false // stale or reordered heartbeat; the freshest already counted
	}
	if e.bootstrap || suspected {
		// A heartbeat from a suspected peer proves the expected-arrival
		// estimate wrong — after a sender's downtime the estimate stays
		// wrong forever, because the sequence numbers stopped advancing
		// while the clock did not. Rebase the window on this arrival alone
		// (as with the restart bootstrap) instead of mixing incompatible
		// eras, which would otherwise flap once per heartbeat until the
		// window turns over.
		e.rebase()
		e.bootstrap = false
	}
	e.push(now - time.Duration(seq)*e.p.interval)
	e.maxSeq = seq
	return e.deadline(), true
}

// CopyTo implements monitor.Rule (the window is the only reference field).
func (e *Estimator) CopyTo(dst *Estimator) {
	lags := dst.lags
	*dst = *e
	dst.lags = lags
	e.lags.CopyTo(&dst.lags)
}
