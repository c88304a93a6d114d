package heartbeat

import "time"

// Estimator is the fixed-timeout rule Θ for one monitored peer, with no Env,
// goroutine or timer machinery: the one implementation of the rule, run by
// the simulator's Node (as its monitor.Rule) and by a shard worker of
// internal/liveshard, which feeds it heartbeat arrival times via Observe and
// polls Suspected on its scan tick. All times are offsets on the caller's
// clock; the Estimator never reads a clock itself, so it is trivially
// testable and runs identically under simulated and wall-clock time.
//
// The zero value is not ready: use NewEstimator, which primes the estimator
// as if a heartbeat arrived at the given instant (the start of monitoring
// counts as the last sighting, avoiding instant suspicion).
type Estimator struct {
	timeout time.Duration
	last    time.Duration
}

// NewEstimator builds an estimator with suspicion timeout Θ, primed as if a
// heartbeat arrived at now.
func NewEstimator(timeout, now time.Duration) *Estimator {
	return &Estimator{timeout: timeout, last: now}
}

// Observe records a heartbeat arrival at time at. Out-of-order arrivals
// (at before the last sighting) are ignored — the freshest sighting wins.
func (e *Estimator) Observe(at time.Duration) {
	if at > e.last {
		e.last = at
	}
}

// Suspected reports whether the peer is suspected at time now: silence has
// exceeded the timeout.
func (e *Estimator) Suspected(now time.Duration) bool {
	return now-e.last > e.timeout
}

// Prime implements monitor.Rule: monitoring starts with a sighting at now.
func (e *Estimator) Prime(now time.Duration) time.Duration {
	e.last = now
	return now + e.timeout
}

// Resume implements monitor.Rule: the restart counts as the last sighting
// of the peer, like Prime, whatever state survived.
func (e *Estimator) Resume(_ bool, now time.Duration) time.Duration { return e.Prime(now) }

// Beat implements monitor.Rule: any heartbeat is a sighting, whatever its
// sequence number.
func (e *Estimator) Beat(_ uint64, now time.Duration, _ bool) (time.Duration, bool) {
	e.Observe(now)
	return e.last + e.timeout, true
}

// CopyTo implements monitor.Rule.
func (e *Estimator) CopyTo(dst *Estimator) { *dst = *e }
