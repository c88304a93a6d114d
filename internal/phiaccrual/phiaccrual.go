// Package phiaccrual implements the φ-accrual failure detector
// (Hayashibara et al.), the adaptive timer-based detector used by most
// contemporary open-source systems (Cassandra, Akka, ...). It is the
// "state of practice" comparator for the paper's time-free approach.
//
// Each process heartbeats every Δ. A monitor keeps a sliding window of
// heartbeat inter-arrival times per peer and computes the suspicion level
//
//	φ(t) = −log₁₀( P_later(t − t_last) )
//
// where P_later is the tail probability of the next heartbeat arriving
// after the elapsed silence, under a normal fit of the window. The peer is
// suspected while φ exceeds a threshold. Unlike a fixed timeout the scale
// adapts to observed delays — but it is still a timing assumption, and heavy
// delay tails still produce mistakes.
//
// This package holds the detector's Config, its per-peer rule (Estimator:
// the window and the φ threshold) and its constructor; the node runtime is
// internal/monitor's, shared with the fixed-timeout heartbeat and NFD-E, and
// polls the rule every quarter interval. A node's rule keeps the default
// window (200 samples) and floor (Interval/20); an Estimator built directly
// can set both.
package phiaccrual

import (
	"errors"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/node"
)

// Config parameterizes a φ-accrual detector.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Peers are the monitored processes (Self is ignored if present).
	Peers ident.Set
	// Interval is the heartbeat period Δ.
	Interval time.Duration
	// Threshold is the suspicion level above which a peer is suspected.
	// The conventional default is 8 (used when zero).
	Threshold float64
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Validate checks the configuration; the knobs of the rule are checked by
// EstimatorConfig.Validate.
func (c Config) Validate() error {
	if !c.Self.Valid() {
		return errors.New("phiaccrual: config: Self must be valid")
	}
	return c.rule().Validate()
}

// rule is the part of the configuration that concerns the per-peer rule.
func (c Config) rule() EstimatorConfig {
	return EstimatorConfig{Interval: c.Interval, Threshold: c.Threshold}
}

// Node is a φ-accrual detector node: the shared runtime polling the φ rule.
// Its runtime serializes every call, Phi included (monitor.Node).
type Node struct {
	*monitor.Node[Estimator, *Estimator]
}

// NewNode builds a φ-accrual detector on env. Monitoring starts as if a
// heartbeat from every peer arrived at Start, with the window primed with
// the nominal interval — the standard bootstrap that avoids instant
// suspicion.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rule := cfg.rule()
	rule.fillDefaults()
	poll := cfg.Interval / 4
	if poll <= 0 {
		poll = time.Millisecond
	}
	return &Node{monitor.New[Estimator, *Estimator](env, monitor.Config{
		Self: cfg.Self, Peers: cfg.Peers, Interval: cfg.Interval, Poll: poll, Sink: cfg.Sink,
	}, Estimator{cfg: &rule})}, nil
}

// Phi returns the current suspicion level for id (diagnostics/tests).
func (n *Node) Phi(id ident.ID) (phi float64) {
	n.Peek(id, func(e *Estimator, now time.Duration) { phi = e.Phi(now) })
	return phi
}
