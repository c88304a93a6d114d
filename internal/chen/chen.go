// Package chen implements the NFD-E failure detector of Chen, Toueg and
// Aguilera ("On the quality of service of failure detectors"): heartbeats
// are sent every Δ; the monitor estimates the expected arrival time EA of
// the next heartbeat from a window of past arrivals and suspects the sender
// when the clock passes EA + α. It is the classic adaptive *expected-arrival*
// detector, complementing the φ-accrual comparator.
//
// EA for heartbeat m+1, where m is the highest sequence number heard, is the
// mean over the window of each sample's lag A_i − Δ·s_i behind the sender's
// schedule, plus Δ·(m+1). The window holds those lags, one per heartbeat (the
// last 100 of them), in a ring.Ring — four bytes a lag while the lags stay
// within ±2³¹ ns of the window's first, eight from the first one that does
// not until the window is rebased — and their running sum.
//
// This package holds the detector's Config, its per-peer rule (Estimator:
// the lag window and EA + α) and its constructor; the node runtime is
// internal/monitor's, shared with the fixed-timeout heartbeat and φ-accrual.
package chen

import (
	"errors"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/node"
)

// Config parameterizes an NFD-E detector.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Peers are the monitored processes (Self is ignored if present).
	Peers ident.Set
	// Interval is the heartbeat period Δ.
	Interval time.Duration
	// Alpha is the safety margin added to the expected arrival time.
	Alpha time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Self.Valid() {
		return errors.New("chen: config: Self must be valid")
	}
	if c.Interval <= 0 {
		return errors.New("chen: config: Interval must be positive")
	}
	if c.Alpha <= 0 {
		return errors.New("chen: config: Alpha must be positive")
	}
	return nil
}

// Node is an NFD-E detector node: the shared runtime over the
// expected-arrival rule. Its runtime serializes every call (monitor.Node).
type Node = monitor.Node[Estimator, *Estimator]

// NewNode builds an NFD-E detector on env. Its heartbeat sequence counter is
// never reset — it doubles as an incarnation number, so peers (which discard
// non-increasing sequences) keep trusting the sender after it restarts.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return monitor.New[Estimator, *Estimator](env, monitor.Config{
		Self: cfg.Self, Peers: cfg.Peers, Interval: cfg.Interval, Sink: cfg.Sink,
	}, Estimator{p: &params{interval: cfg.Interval, alpha: cfg.Alpha, window: windowSize}}), nil
}
