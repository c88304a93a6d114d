package chen

import "time"

// refEstimator is the NFD-E rule as it stood before the lag window: the ring
// holds (sequence number, arrival time) pairs and keeps two running sums,
// Σ arrival and Σ seq, from which expectedArrival forms ΣA − Δ·Σs. It is the
// oracle the Estimator is held to — the same ok, deadline and Suspected after
// every step — and shares with it only the params.
type refEstimator struct {
	p       *params
	samples []sample // ring, bounded by p.window
	next    int
	maxSeq  uint64
	// sumArrival/sumSeq are the running window sums Σ arrival and Σ seq,
	// maintained by push so expectedArrival is O(1) instead of re-walking
	// the window on every heartbeat. Integer arithmetic, so the incremental
	// sums equal the walked ones exactly.
	sumArrival time.Duration
	sumSeq     uint64
	// bootstrap marks a window holding only the synthetic restart sample;
	// the first real heartbeat replaces it wholesale.
	bootstrap bool
}

// sample is one heartbeat observation.
type sample struct {
	seq     uint64
	arrival time.Duration
}

func (e *refEstimator) push(s sample) {
	if capacity := e.p.window; len(e.samples) < capacity {
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

func (e *refEstimator) rebase() {
	e.samples = e.samples[:0]
	e.next = 0
	e.sumArrival = 0
	e.sumSeq = 0
}

// expectedArrival is the average of (A_i − Δ·seq_i) over the window, plus
// Δ·(maxSeq+1), with the window sum formed as ΣA_i − Δ·Σseq_i.
func (e *refEstimator) expectedArrival() time.Duration {
	if len(e.samples) == 0 {
		return 0
	}
	interval := e.p.interval
	sum := e.sumArrival - time.Duration(e.sumSeq)*interval
	base := sum / time.Duration(len(e.samples))
	return base + time.Duration(e.maxSeq+1)*interval
}

func (e *refEstimator) deadline() time.Duration { return e.expectedArrival() + e.p.alpha }

func (e *refEstimator) Suspected(now time.Duration) bool { return now > e.deadline() }

func (e *refEstimator) Prime(now time.Duration) time.Duration {
	e.push(sample{seq: 0, arrival: now})
	return e.deadline()
}

func (e *refEstimator) Resume(fresh bool, now time.Duration) time.Duration {
	if fresh {
		e.rebase()
		e.maxSeq, e.bootstrap = 0, true
		return e.Prime(now)
	}
	return e.deadline()
}

func (e *refEstimator) Beat(seq uint64, now time.Duration, suspected bool) (time.Duration, bool) {
	if seq <= e.maxSeq {
		return 0, false
	}
	if e.bootstrap || suspected {
		e.rebase()
		e.bootstrap = false
	}
	e.push(sample{seq: seq, arrival: now})
	return e.deadline(), true
}

func (e *refEstimator) CopyTo(dst *refEstimator) {
	samples := append(dst.samples[:0], e.samples...)
	*dst = *e
	dst.samples = samples
}
