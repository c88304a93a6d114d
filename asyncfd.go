// Package asyncfd is the public facade of the repository: a time-free
// (asynchronous) implementation of unreliable failure detectors after the
// DSN 2003 paper "Asynchronous Implementation of Failure Detectors"
// (Mostéfaoui, Mourgaya, Raynal), together with the substrates needed to
// run, evaluate and apply it.
//
// The detector never uses clocks or timeouts. Each process repeatedly
// broadcasts a QUERY and waits for responses from n−f processes; processes
// whose responses are not among them become suspected, and suspicions are
// flooded — with logical counters for recency, refutable by their subjects —
// inside subsequent queries. Under the paper's message-pattern assumption
// the output is a failure detector of class ◇S, which (with a correct
// majority) suffices to solve consensus.
//
// Layout of the underlying packages (importable inside this module):
//
//   - internal/core       — the protocol state machine and round runtime
//   - internal/heartbeat, internal/phiaccrual, internal/chen — timer-based baselines
//   - internal/des, internal/netsim — deterministic simulation
//   - internal/tcpnet     — the real-time runtime: the same nodes over TCP sockets
//   - internal/consensus  — an application (◇S consensus)
//   - internal/topology   — communication graphs for the partial-connectivity extension
//   - internal/exp        — the simulated cluster and experiment harness (tables
//     E1–E8, A1–A2, R1–R2, X1–X2, L1/L5 and LT); exp.ClusterConfig.Graph runs
//     the extension
//
// The facade re-exports the types needed to embed the detector in an
// application and run it over TCP; examples/quickstart uses nothing else.
package asyncfd

import (
	"asyncfd/internal/core"
	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
	"asyncfd/internal/tcpnet"
)

// Core protocol types.
type (
	// ID identifies a process (p0, p1, ...).
	ID = ident.ID
	// Set is a set of process identities.
	Set = ident.Set
	// Config parameterizes the detector state machine (n, f, membership
	// mode).
	Config = core.Config
	// NodeConfig parameterizes the runtime driving the detector (round
	// window, interval, suspicion sink).
	NodeConfig = core.NodeConfig
	// Node is the runnable detector bound to an environment.
	Node = core.Node
	// Env is the runtime environment a node executes in (identity, timers
	// and deadline tables, asynchronous network).
	Env = node.Env
	// Handler consumes messages delivered to a process.
	Handler = node.Handler
	// Detector is the oracle interface applications read (Suspects()).
	Detector = fd.Detector
	// SuspicionSink receives timestamped suspicion transitions.
	SuspicionSink = fd.SuspicionSink
	// TransportConfig parameterizes one process's TCP endpoint (identity,
	// listen address, the Handler its messages are delivered to).
	TransportConfig = tcpnet.Config
	// Transport is one process's TCP endpoint, an Env: register the other
	// processes with AddPeer, Close it to take the process off the network.
	// It serializes its node's callbacks, and the node holds no lock of its
	// own, so code outside them (Start, Stop, Suspects) runs through Do.
	Transport = tcpnet.Transport
)

// Membership modes.
const (
	// KnownMembership: the paper's model — all n identities known, fully
	// connected, quorum n−f.
	KnownMembership = core.KnownMembership
	// UnknownMembership: the extension — membership learned from queries,
	// quorum d−f.
	UnknownMembership = core.UnknownMembership
)

// NewNode builds a detector node on the given environment. This is the main
// entry point for embedding the detector: provide an Env (a Transport from
// NewTransport, or your own implementation) and a NodeConfig, then call Start
// (on a Transport, through its Do).
func NewNode(env Env, cfg NodeConfig) (*Node, error) { return core.NewNode(env, cfg) }

// NewTransport opens a process's TCP endpoint, listening on
// cfg.ListenAddr, for running a detector node in real time.
func NewTransport(cfg TransportConfig) (*Transport, error) { return tcpnet.New(cfg) }
