package chen

import "time"

// sample is one heartbeat observation.
type sample struct {
	seq     uint64
	arrival time.Duration
}

// Estimator is the NFD-E rule for one monitored peer — a window of
// (sequence number, arrival time) pairs and the expected arrival EA of the
// next heartbeat — with no Env, goroutine or timer machinery. It is the
// monitor.Rule the simulator's Node runs. Unlike the Θ and φ rules it needs
// the heartbeat's sequence number, which is why internal/liveshard (whose
// ingest carries arrival times only) cannot run it yet.
type Estimator struct {
	cfg     *Config  // shared by every peer of one monitor
	samples []sample // ring, bounded by WindowSize
	next    int
	maxSeq  uint64
	// sumArrival/sumSeq are the running window sums Σ arrival and Σ seq,
	// maintained by push so expectedArrival is O(1) instead of re-walking
	// the window on every heartbeat. Integer arithmetic, so the incremental
	// sums equal the walked ones exactly.
	sumArrival time.Duration
	sumSeq     uint64
	// bootstrap marks a window holding only the synthetic restart sample;
	// the first real heartbeat replaces it wholesale, because mixing the
	// restart-era sample with post-restart sequence numbers would corrupt
	// the expected-arrival estimate.
	bootstrap bool
}

func (e *Estimator) push(s sample) {
	if capacity := e.cfg.WindowSize; len(e.samples) < capacity {
		e.samples = append(e.samples, s)
	} else {
		old := e.samples[e.next]
		e.sumArrival -= old.arrival
		e.sumSeq -= old.seq
		e.samples[e.next] = s
		e.next = (e.next + 1) % capacity
	}
	e.sumArrival += s.arrival
	e.sumSeq += s.seq
	if s.seq > e.maxSeq {
		e.maxSeq = s.seq
	}
}

// rebase empties the window (and its running sums) so the next push starts a
// fresh estimation era.
func (e *Estimator) rebase() {
	e.samples = e.samples[:0]
	e.next = 0
	e.sumArrival = 0
	e.sumSeq = 0
}

// expectedArrival estimates EA for heartbeat maxSeq+1: the average of
// (A_i − Δ·seq_i) over the window, plus Δ·(maxSeq+1). The window sums are
// maintained incrementally by push; Σ(A_i − Δ·seq_i) = ΣA_i − Δ·Σseq_i
// exactly in integer arithmetic, so this matches the walked sum byte for
// byte at O(1) per heartbeat.
func (e *Estimator) expectedArrival() time.Duration {
	if len(e.samples) == 0 {
		return 0
	}
	interval := e.cfg.Interval
	sum := e.sumArrival - time.Duration(e.sumSeq)*interval
	base := sum / time.Duration(len(e.samples))
	return base + time.Duration(e.maxSeq+1)*interval
}

// deadline is EA + α: the instant from which the next heartbeat is overdue.
func (e *Estimator) deadline() time.Duration { return e.expectedArrival() + e.cfg.Alpha }

// Suspected implements monitor.Rule: the clock has passed EA + α.
func (e *Estimator) Suspected(now time.Duration) bool { return now > e.deadline() }

// Prime implements monitor.Rule: monitoring starts as if heartbeat 0 had
// just arrived. The sample joins whatever the window holds — peers that
// started earlier may have been heard already — and the first real
// heartbeats join it in turn.
func (e *Estimator) Prime(now time.Duration) time.Duration {
	e.push(sample{seq: 0, arrival: now})
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
	e.push(sample{seq: seq, arrival: now})
	return e.deadline(), true
}

// CopyTo implements monitor.Rule (the window is the only reference field).
func (e *Estimator) CopyTo(dst *Estimator) {
	samples := append(dst.samples[:0], e.samples...)
	*dst = *e
	dst.samples = samples
}
