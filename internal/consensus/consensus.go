// Package consensus implements Chandra–Toueg rotating-coordinator consensus
// for asynchronous systems equipped with a failure detector of class ◇S and
// a majority of correct processes — the very result that motivates the
// paper's detector: plugging any fd.Detector (the time-free query–response
// detector, a heartbeat detector, ...) into this module yields a consensus
// service, and experiment E7 compares decision latencies across detectors.
//
// The protocol proceeds in asynchronous rounds. In round r with coordinator
// c = (r−1) mod n:
//
//  1. every process sends its current estimate (value, timestamp) to c;
//  2. c collects a majority of estimates, adopts the one with the highest
//     timestamp and broadcasts it as the round's proposal;
//  3. every process waits until it receives c's proposal (then adopts it,
//     timestamps it with r and acknowledges) or its failure detector
//     suspects c (then it moves on);
//  4. if c gathers a majority of acknowledgments, the proposal is locked by
//     a majority and c reliably broadcasts the decision.
//
// Safety (validity, agreement) never depends on the detector; liveness
// requires ◇S's eventual weak accuracy plus strong completeness.
package consensus

import (
	"errors"
	"fmt"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Value is a proposable value.
type Value int64

// EstimateMsg is the phase-1 message carried to the round's coordinator.
type EstimateMsg struct {
	From  ident.ID
	Round uint64
	Est   Value
	TS    uint64
}

// ProposalMsg is the coordinator's phase-2 broadcast.
type ProposalMsg struct {
	From  ident.ID
	Round uint64
	Est   Value
}

// AckMsg is the positive phase-3 acknowledgment sent back to the
// coordinator. Negative acknowledgments are unnecessary: a coordinator that
// never gathers a positive majority simply never decides in that round.
type AckMsg struct {
	From  ident.ID
	Round uint64
}

// DecideMsg propagates the decision (one-relay reliable broadcast).
type DecideMsg struct {
	From  ident.ID
	Value Value
}

// Config parameterizes a consensus participant.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// N is the number of processes (identities 0..N-1).
	N int
	// F is the crash bound; Chandra–Toueg requires a correct majority,
	// i.e. 2F < N.
	F int
	// Detector is the unreliable failure detector consulted in phase 3.
	Detector fd.Detector
	// OnDecide, if set, is invoked exactly once with the decided value.
	OnDecide func(Value)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Self.Valid() || int(c.Self) >= c.N {
		return errors.New("consensus: config: Self out of range")
	}
	if c.N < 2 {
		return errors.New("consensus: config: N must be ≥ 2")
	}
	if 2*c.F >= c.N {
		return fmt.Errorf("consensus: config: need a correct majority (2f < n), got f=%d n=%d", c.F, c.N)
	}
	if c.Detector == nil {
		return errors.New("consensus: config: Detector is required")
	}
	return nil
}

// roundState accumulates coordinator-side bookkeeping for one round.
type roundState struct {
	estimates int
	bestTS    uint64
	bestVal   Value
	hasBest   bool
	proposed  bool
	acks      int

	proposal    Value
	hasProposal bool
}

// Node is one consensus participant. It holds no lock: like every node, it is
// called only in its runtime's callback context (node.Env), and so is the
// detector it consults.
type Node struct {
	env node.Env
	cfg Config
	// poll is a one-slot deadline table: the next consultation of the
	// detector, set while the participant waits for its round's coordinator.
	poll    node.Deadlines
	started bool

	est Value
	ts  uint64

	round    uint64 // participant's current round (1-based)
	resolved bool   // phase 3 of the current round resolved

	rounds map[uint64]*roundState

	decided  bool
	decision Value
}

var _ node.Handler = (*Node)(nil)

// NewNode builds a consensus participant on env.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{env: env, cfg: cfg, rounds: make(map[uint64]*roundState)}
	n.poll = env.Deadlines(1, n.consult)
	return n, nil
}

// majority returns ⌈(n+1)/2⌉.
func (n *Node) majority() int { return n.cfg.N/2 + 1 }

func (n *Node) coord(round uint64) ident.ID {
	return ident.ID((round - 1) % uint64(n.cfg.N))
}

func (n *Node) state(round uint64) *roundState {
	st, ok := n.rounds[round]
	if !ok {
		st = &roundState{}
		n.rounds[round] = st
	}
	return st
}

// Propose starts the protocol with this process's initial value. It must be
// called exactly once.
func (n *Node) Propose(v Value) {
	if n.started {
		return
	}
	n.started = true
	n.est = v
	n.ts = 0
	n.startRound(1)
}

// Decided returns the decision, if reached.
func (n *Node) Decided() (Value, bool) {
	return n.decision, n.decided
}

func (n *Node) startRound(r uint64) {
	if n.decided {
		return
	}
	n.round = r
	n.resolved = false
	c := n.coord(r)

	// Phase 1: estimate to the coordinator.
	est := EstimateMsg{From: n.cfg.Self, Round: r, Est: n.est, TS: n.ts}
	if c == n.cfg.Self {
		n.handleEstimate(est)
	} else {
		n.env.Send(c, est)
	}

	// Phase 3 entry: the proposal may already be buffered.
	if st := n.state(r); st.hasProposal {
		n.adopt(r, st.proposal)
		return
	}
	n.poll.Set(0, pollInterval)
}

// pollInterval is how often the detector is re-consulted while waiting for a
// coordinator.
const pollInterval = 5 * time.Millisecond

// consult is the poll's callback: the failure detector is asked about the
// current round's coordinator, whose proposal has not come. The poll is set
// only while that wait lasts.
func (n *Node) consult(int) {
	if n.cfg.Detector.IsSuspected(n.coord(n.round)) {
		// Phase 3, suspicion branch: give up on this coordinator.
		n.resolved = true
		n.startRound(n.round + 1)
		return
	}
	n.poll.Set(0, pollInterval)
}

// adopt executes the phase-3 adoption branch for round r.
func (n *Node) adopt(r uint64, v Value) {
	n.resolved = true
	n.poll.Clear(0)
	n.est = v
	n.ts = r
	ack := AckMsg{From: n.cfg.Self, Round: r}
	if c := n.coord(r); c == n.cfg.Self {
		n.handleAck(ack)
	} else {
		n.env.Send(c, ack)
	}
	if !n.decided {
		n.startRound(r + 1)
	}
}

// handleEstimate is the coordinator's phase-2 trigger.
func (n *Node) handleEstimate(m EstimateMsg) {
	st := n.state(m.Round)
	st.estimates++
	if !st.hasBest || m.TS > st.bestTS {
		st.hasBest = true
		st.bestTS = m.TS
		st.bestVal = m.Est
	}
	if st.proposed || st.estimates < n.majority() || n.coord(m.Round) != n.cfg.Self {
		return
	}
	st.proposed = true
	prop := ProposalMsg{From: n.cfg.Self, Round: m.Round, Est: st.bestVal}
	n.env.Broadcast(prop)
	n.handleProposal(prop) // self-delivery
}

func (n *Node) handleProposal(m ProposalMsg) {
	if m.From != n.coord(m.Round) {
		return // not from the legitimate coordinator of that round
	}
	st := n.state(m.Round)
	st.proposal = m.Est
	st.hasProposal = true
	if n.round == m.Round && !n.resolved && !n.decided {
		n.adopt(m.Round, m.Est)
	}
}

// handleAck is the coordinator's phase-4 trigger.
func (n *Node) handleAck(m AckMsg) {
	st := n.state(m.Round)
	if n.coord(m.Round) != n.cfg.Self || !st.proposed {
		return
	}
	st.acks++
	if st.acks == n.majority() {
		// The proposal is locked by a majority: decide and R-broadcast.
		n.decide(st.proposal)
	}
}

func (n *Node) decide(v Value) {
	if n.decided {
		return
	}
	n.decided = true
	n.decision = v
	n.poll.Clear(0)
	n.env.Broadcast(DecideMsg{From: n.cfg.Self, Value: v})
	if n.cfg.OnDecide != nil {
		n.cfg.OnDecide(v)
	}
}

// Deliver implements node.Handler. All handlers are round-indexed
// bookkeeping that is safe to run even before Propose: early messages are
// buffered in round state and consulted when the participant reaches the
// round.
func (n *Node) Deliver(_ ident.ID, payload any) {
	switch m := payload.(type) {
	case EstimateMsg:
		n.handleEstimate(m)
	case ProposalMsg:
		n.handleProposal(m)
	case AckMsg:
		n.handleAck(m)
	case DecideMsg:
		n.decide(m.Value)
	}
}
