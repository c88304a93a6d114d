package core

import (
	"fmt"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// NodeConfig parameterizes the runtime that drives a Detector over a
// node.Env.
type NodeConfig struct {
	// Detector configures the protocol state machine.
	Detector Config
	// Window is the extra collection time after the quorum is reached and
	// before the round is evaluated. The pure paper protocol uses 0; the
	// evaluation sections of the paper family insert a waiting period here
	// so that late (but live) processes are counted, trading detection
	// latency for fewer false suspicions. Correctness is unaffected.
	Window time.Duration
	// Interval is the pause between the end of a round and the next query,
	// throttling network load. The paper only requires it to be finite.
	Interval time.Duration
	// Rebroadcast, when positive, re-sends the current query if the quorum
	// has not been met after this long. The pure protocol never needs it
	// (reliable links guarantee the quorum), but a node that was
	// disconnected while moving loses its in-flight query and would
	// otherwise stall forever — the mobility extension sets this.
	// Duplicate queries and responses are idempotent, so correctness is
	// unaffected.
	Rebroadcast time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Node drives the time-free detector protocol on a runtime environment: it
// owns the query rounds of task T1 and answers queries per task T2. Node holds
// no lock: like every node, it is called only in its runtime's callback
// context (node.Env), which makes T1 and T2 atomic steps of one process. Its
// pauses (Window, Interval) and its rebroadcast are the two slots of one
// deadline table, clock; it arms no timer.
type Node struct {
	env node.Env   //fdlint:allow clonefields immutable wiring, set once at construction
	cfg NodeConfig //fdlint:allow clonefields immutable config, set once at construction
	// clock is the node's timeouts: roundSlot ends the open round or starts
	// the next, rebroadcastSlot sends the open round's query again. What it
	// has set is the runtime's state (the kernel's, on the simulator),
	// checkpointed there.
	clock node.Deadlines //fdlint:allow clonefields immutable handle; the runtime checkpoints what is set
	nodeState
}

// The clock's slots.
const (
	// roundSlot is set while the round is open with its quorum met (Window)
	// and after it ends (Interval).
	roundSlot = iota
	// rebroadcastSlot is set while the round is open and its quorum unmet,
	// if Rebroadcast is positive.
	rebroadcastSlot
)

// nodeState is everything about a Node a run changes: the protocol state
// machine, held by value — the nodeObserver binding and the clock's callback
// reference the Node, never the Detector — the open round's query and the
// round counter. It is the node.Cloneable checkpoint: Snapshot and Restore
// are copyTo run in the two directions. The query's entry slices are shared:
// no one writes to a query once it is sent.
type nodeState struct {
	det     Detector
	query   Query // the open round's, kept to be rebroadcast
	stopped bool
	rounds  uint64
}

func (s *nodeState) copyTo(dst *nodeState) {
	*dst = *s
	s.det.detectorState.copyTo(&dst.det.detectorState)
}

var _ node.Handler = (*Node)(nil)
var _ fd.Detector = (*Node)(nil)
var _ fd.Restartable = (*Node)(nil)
var _ node.Cloneable = (*Node)(nil)

// NewNode builds the runtime node. The environment's identity must match
// the detector configuration.
func NewNode(env node.Env, cfg NodeConfig) (*Node, error) {
	if env.Self() != cfg.Detector.Self {
		return nil, fmt.Errorf("core: env identity %v != detector identity %v", env.Self(), cfg.Detector.Self)
	}
	n := &Node{env: env, cfg: cfg}
	n.clock = env.Deadlines(2, n.expire)
	detCfg := cfg.Detector
	detCfg.Observer = (*nodeObserver)(n)
	det, err := NewDetector(detCfg)
	if err != nil {
		return nil, err
	}
	n.det = *det
	return n, nil
}

// nodeObserver adapts detector events to the timestamped suspicion sink.
// It runs inside the Node step that called the detector.
type nodeObserver Node

// FDEvent implements Observer.
func (o *nodeObserver) FDEvent(e Event) {
	n := (*Node)(o)
	if n.cfg.Sink == nil {
		return
	}
	switch e.Kind {
	case Suspect:
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), e.Subject, true)
	case Restore:
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), e.Subject, false)
	}
}

// Start launches the first query round. It must be called exactly once.
func (n *Node) Start() {
	n.startRound()
}

// Restart implements fd.Restartable. A fresh restart rebuilds the protocol
// state machine from its initial state — counter, suspected/mistake sets
// and, in the unknown-membership model, the learned known set are all lost
// in the reboot — and emits the implied restore transitions; a persisted
// restart keeps the state machine and merely abandons the query round that
// was in flight when the process crashed. Either way a new round starts
// immediately. A freshly reset counter is harmless: self-refutation bumps
// it above any received suspicion tag (task T2), so the restarted process
// can still clear stale suspicions of itself.
func (n *Node) Restart(fresh bool) {
	n.clear()
	n.stopped = false
	if fresh {
		if n.cfg.Sink != nil {
			now := n.env.Now()
			n.det.Suspects().ForEach(func(subj ident.ID) bool {
				n.cfg.Sink.OnSuspicion(now, n.env.Self(), subj, false)
				return true
			})
		}
		detCfg := n.cfg.Detector
		detCfg.Observer = (*nodeObserver)(n)
		det, err := NewDetector(detCfg)
		if err != nil {
			// Unreachable: the same configuration validated at NewNode.
			panic(fmt.Sprintf("core: Restart: %v", err))
		}
		n.det = *det
	} else if n.det.RoundOpen() {
		n.det.AbortRound()
	}
	n.startRound()
}

// Stop halts the querying task. In-flight deliveries are still answered (a
// stopped node keeps responding to queries, like a process that is alive but
// no longer interested in the oracle output); pass-through behavior keeps
// shutdown of live clusters graceful.
func (n *Node) Stop() {
	n.stopped = true
	n.clear()
}

func (n *Node) clear() {
	n.clock.Clear(roundSlot)
	n.clock.Clear(rebroadcastSlot)
}

// Suspects implements fd.Detector.
func (n *Node) Suspects() ident.Set {
	return n.det.Suspects()
}

// IsSuspected implements fd.Detector.
func (n *Node) IsSuspected(id ident.ID) bool {
	return n.det.IsSuspected(id)
}

// Known returns the current known set (membership discovered so far).
func (n *Node) Known() ident.Set {
	return n.det.Known()
}

// Snapshot implements node.Cloneable.
func (n *Node) Snapshot() any {
	s := new(nodeState)
	n.nodeState.copyTo(s)
	return s
}

// Restore implements node.Cloneable.
func (n *Node) Restore(snap any) {
	snap.(*nodeState).copyTo(&n.nodeState)
}

// Deliver implements node.Handler, dispatching task T2 (queries) and the
// response collection of task T1.
func (n *Node) Deliver(from ident.ID, payload any) {
	switch m := payload.(type) {
	case Query:
		resp := n.det.HandleQuery(m)
		n.env.Send(from, resp)
	case Response:
		// A response after the quorum still counts (HandleResponse), but
		// the round's end is set already.
		met := n.det.QuorumMet()
		if n.det.HandleResponse(m) && !met {
			n.maybeCloseRound()
		}
	}
}

func (n *Node) startRound() {
	if n.stopped {
		return
	}
	n.query = n.det.BeginRound()
	n.env.Broadcast(n.query)
	if n.cfg.Rebroadcast > 0 {
		n.clock.Set(rebroadcastSlot, n.cfg.Rebroadcast)
	}
	n.maybeCloseRound() // quorum of 1 (own response) is possible
}

// maybeCloseRound sets the end of the round once its quorum is met, and
// stops the rebroadcast.
func (n *Node) maybeCloseRound() {
	if n.stopped || !n.det.QuorumMet() {
		return
	}
	n.clock.Clear(rebroadcastSlot)
	n.clock.Set(roundSlot, n.cfg.Window)
}

// expire is the clock's callback. The round slot ends the open round, whose
// quorum was met when it was set, or, once the round has ended, starts the
// next; the rebroadcast slot sends the open round's query again.
func (n *Node) expire(slot int) {
	switch {
	case slot == rebroadcastSlot:
		n.env.Broadcast(n.query)
		n.clock.Set(rebroadcastSlot, n.cfg.Rebroadcast)
	case n.det.RoundOpen():
		n.det.EndRound()
		n.rounds++
		n.clock.Set(roundSlot, n.cfg.Interval)
	default:
		n.startRound()
	}
}
