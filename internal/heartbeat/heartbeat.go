// Package heartbeat implements the classical timer-based unreliable failure
// detector that the paper argues against: every process broadcasts a
// heartbeat every Δ; a monitor suspects a peer when no heartbeat arrives for
// Θ, and revokes the suspicion when one finally does.
//
// Two variants are provided, both on internal/monitor's node runtime (shared
// with φ-accrual and NFD-E) over this package's per-peer rule, Estimator: Θ
// after the last sighting.
//
//   - Node: the direct all-to-all detector for fully connected systems
//     (Chandra–Toueg-style, the default comparator in experiments E1–E7).
//   - GossipNode: the Friedman–Tcharny-style vector detector for partially
//     connected systems (the extension experiments X1/X2): the same rule,
//     polled every Δ over every process, behind a relay that floods
//     heartbeat counters through neighbour broadcasts, so liveness
//     information crosses multiple hops. The relay's vector and its max-merge
//     are all the code it has of its own.
//
// Both variants need the timing assumption the time-free detector avoids: Θ
// must dominate the (unknown) end-to-end delay, or false suspicions never
// stop.
package heartbeat

import (
	"errors"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/node"
)

// Message is the direct heartbeat: the one payload the whole heartbeat
// family sends, whatever rule listens.
type Message = monitor.Message

// Config parameterizes a heartbeat detector, direct or gossip.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Peers are the monitored processes (Self is ignored if present); a
	// gossip node carries the counter of each.
	Peers ident.Set
	// Interval is the heartbeat period Δ.
	Interval time.Duration
	// Timeout is the suspicion timeout Θ (counted from the last heartbeat).
	Timeout time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Self.Valid() {
		return errors.New("heartbeat: config: Self must be valid")
	}
	if c.Interval <= 0 {
		return errors.New("heartbeat: config: Interval must be positive")
	}
	if c.Timeout <= 0 {
		return errors.New("heartbeat: config: Timeout must be positive")
	}
	return nil
}

// Node is the direct all-to-all heartbeat detector: the shared runtime over
// the fixed-timeout rule. Its runtime serializes every call (monitor.Node).
type Node = monitor.Node[Estimator, *Estimator]

// NewNode builds a direct heartbeat detector on env.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return monitor.New[Estimator, *Estimator](env, monitor.Config{
		Self: cfg.Self, Peers: cfg.Peers, Interval: cfg.Interval, Sink: cfg.Sink,
	}, Estimator{timeout: cfg.Timeout}), nil
}
