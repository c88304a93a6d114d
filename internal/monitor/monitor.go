// Package monitor is the one node runtime of the heartbeat family: the
// timer-based detectors the paper measures its time-free detector against
// (fixed timeout, φ-accrual, Chen NFD-E) all broadcast a sequence-numbered
// heartbeat every Δ and keep, per monitored peer, an opinion that a heartbeat
// refreshes and silence erodes. Node owns everything they share — the sender
// tick, the peer table, the suspicion flags and their deadlines or poll, the
// sink, crash-recovery and the warm-fork checkpoint (one state value, one
// copyTo run in both directions) — and is generic over the per-peer Rule that
// makes a kind a kind. Its timeouts are one node.Deadlines table: the beat
// in slot 0, the poll in slot 1 and a slot per peer's deadline after them
// (a polled node, φ, sets only the first two), so that neither a heartbeat
// pushing a deadline back nor a tick or a poll re-arming itself makes a
// handle, a closure or, on the simulator, a kernel event. The rules are the
// Estimator types of internal/heartbeat, internal/phiaccrual and
// internal/chen, whose constructors fill this package's Config; nothing here
// knows which one it runs. The gossip detector (heartbeat.GossipNode) is one
// more user: the fixed-timeout rule, polled, behind a relay that sends the
// heartbeat as a vector of counters and hands the runtime each counter that
// rose.
package monitor

import (
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Message is the heartbeat every kind sends.
type Message struct {
	From ident.ID
	Seq  uint64
}

// Rule is one monitor's opinion of one peer: an automaton over heartbeat
// arrivals that never reads a clock, arms a timer or holds the suspicion flag
// itself. R is the rule's state, kept by value in the peer record.
//
// Every method that takes in a sighting returns the deadline it leaves
// behind: the instant from which continued silence means suspicion. A rule
// with no closed-form deadline (φ) returns 0 and is run with Config.Poll
// set — the Node then sets no deadlines and asks Suspected on every poll.
type Rule[R any] interface {
	*R
	// Prime begins monitoring at now: the start counts as a sighting, so
	// nobody is suspected at once.
	Prime(now time.Duration) (deadline time.Duration)
	// Resume carries on after the monitor's own crash-recovery at now, with
	// its state lost (fresh) or persisted.
	Resume(fresh bool, now time.Duration) (deadline time.Duration)
	// Beat takes in heartbeat seq arriving at now from a peer the monitor
	// currently does or does not suspect. ok false means the heartbeat was
	// dropped and changes nothing.
	Beat(seq uint64, now time.Duration, suspected bool) (deadline time.Duration, ok bool)
	// Suspected reports whether silence up to now means suspicion.
	Suspected(now time.Duration) bool
	// CopyTo deep-copies the rule into dst, reusing dst's storage.
	CopyTo(dst *R)
}

// Config is what a kind's constructor hands the runtime. It is not a user
// surface: heartbeat.NewNode, phiaccrual.NewNode and chen.NewNode fill it from
// their own Config.
type Config struct {
	// Self is left out of Peers if present.
	Self  ident.ID
	Peers ident.Set
	// Interval is the heartbeat period Δ.
	Interval time.Duration
	// Poll, if positive, makes the monitor polled: no deadlines, and every
	// peer's Suspected is asked every Poll.
	Poll time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// peer is one monitored process. Its deadline is the slot of the node's
// table numbered peerSlot plus its index in recs. The id and the flag come
// last, to share a word: one record per (observer, subject) pair is the bulk
// of a run's detector state.
type peer[R any] struct {
	rule      R
	id        ident.ID
	suspected bool
}

// Node is a heartbeat-family detector node. It holds no lock: like every
// node, it is called only in its runtime's callback context (node.Env).
type Node[R any, PR Rule[R]] struct {
	env node.Env //fdlint:allow clonefields immutable wiring, set once at construction
	cfg Config   //fdlint:allow clonefields immutable config, set once at construction
	// byID maps a peer's id to its index in recs, plus one: zero is absent.
	byID node.DenseMap[int32] //fdlint:allow clonefields immutable index into recs, built at construction
	// clock is the node's timeouts: slot 0 is the beat, slot 1 the poll,
	// and slot peerSlot+i recs[i]'s deadline, so a polled node, which sets
	// no deadline, uses only the table's first two slots. What it has set
	// is the runtime's state (the kernel's, on the simulator), checkpointed
	// there.
	clock node.Deadlines //fdlint:allow clonefields immutable handle; the runtime checkpoints what is set
	state[R, PR]
}

// state is everything about a Node a run changes, and so the node.Cloneable
// checkpoint: Snapshot and Restore are copyTo run in the two directions.
type state[R any, PR Rule[R]] struct {
	// recs holds the peers in ascending id — the order of every loop below,
	// because same-instant deadlines fire in arming order and same-instant
	// transitions are traced in emission order, and runs of one seed must
	// produce identical bytes. Node.byID indexes into it.
	recs []peer[R]
	// seq is the last heartbeat sent. A fresh Restart keeps it: a rule that
	// drops stale sequence numbers (NFD-E) would otherwise discard the
	// restarted sender, so it doubles as an incarnation number.
	seq     uint64
	stopped bool
}

// copyTo makes dst a copy of s whose rules share no storage with s's.
// Records dst already has are overwritten in place, reusing their rules'
// storage.
func (s *state[R, PR]) copyTo(dst *state[R, PR]) {
	recs := dst.recs
	if len(recs) != len(s.recs) {
		recs = make([]peer[R], len(s.recs))
	}
	*dst = *s
	dst.recs = recs
	for i := range recs {
		p, from := &recs[i], &s.recs[i]
		rule := p.rule
		*p = *from
		p.rule = rule
		PR(&from.rule).CopyTo(&p.rule)
	}
}

// New builds a node on env whose every peer starts from a copy of proto.
func New[R any, PR Rule[R]](env node.Env, cfg Config, proto R) *Node[R, PR] {
	cfg.Peers = cfg.Peers.Clone()
	cfg.Peers.Remove(cfg.Self)
	n := &Node[R, PR]{env: env, cfg: cfg}
	n.recs = make([]peer[R], 0, cfg.Peers.Len())
	cfg.Peers.ForEach(func(id ident.ID) bool {
		n.recs = append(n.recs, peer[R]{id: id, rule: proto})
		return true
	})
	for i := range n.recs {
		n.byID.Put(n.recs[i].id, int32(i+1))
	}
	n.clock = env.Deadlines(peerSlot+len(n.recs), n.expire)
	return n
}

// The clock's slots: the node's own beat and poll, then the peers'
// deadlines from peerSlot on.
const (
	beatSlot = iota
	pollSlot
	peerSlot
)

// Start begins heartbeating and monitoring.
func (n *Node[R, PR]) Start() {
	now := n.env.Now()
	for i := range n.recs {
		n.arm(i, PR(&n.recs[i].rule).Prime(now)-now)
	}
	n.tick()
	n.scan()
}

// Restart implements fd.Restartable. With fresh state the reboot lost the
// suspicions, so the oracle output takes every suspected peer back to trusted
// and the trace must say so; with persisted state they survive until the
// peers' heartbeats clear them. What the restart means for the estimate is
// the rule's business.
func (n *Node[R, PR]) Restart(fresh bool) {
	n.stopped = false
	now := n.env.Now()
	for i := range n.recs {
		p := &n.recs[i]
		if fresh && p.suspected {
			p.suspected = false
			n.emit(p.id, false)
		}
		n.arm(i, PR(&p.rule).Resume(fresh, now)-now)
	}
	n.tick()
	n.scan()
}

// Stop halts heartbeating and monitoring.
func (n *Node[R, PR]) Stop() {
	n.stopped = true
	for slot := range len(n.recs) + peerSlot {
		n.clock.Clear(slot)
	}
}

// expire is the clock's callback: the beat, the poll, or a peer's deadline,
// which suspects the peer — it fires at the deadline itself, where the
// rules' own Suspected is still false.
func (n *Node[R, PR]) expire(slot int) {
	switch slot {
	case beatSlot:
		n.tick()
	case pollSlot:
		n.scan()
	default:
		if p := &n.recs[slot-peerSlot]; !n.stopped && !p.suspected {
			p.suspected = true
			n.emit(p.id, true)
		}
	}
}

func (n *Node[R, PR]) tick() {
	if n.stopped {
		return
	}
	n.seq++
	n.env.Broadcast(Message{From: n.env.Self(), Seq: n.seq})
	n.clock.Set(beatSlot, n.cfg.Interval)
}

// scan is the poll of a polled monitor. Trust comes back on a heartbeat,
// never here: silence only grows.
func (n *Node[R, PR]) scan() {
	if n.stopped || n.cfg.Poll <= 0 {
		return
	}
	now := n.env.Now()
	for i := range n.recs {
		p := &n.recs[i]
		if !p.suspected && PR(&p.rule).Suspected(now) {
			p.suspected = true
			n.emit(p.id, true)
		}
	}
	n.clock.Set(pollSlot, n.cfg.Poll)
}

// arm sets recs[i]'s deadline to wait from now (a polled monitor has none):
// every heartbeat from a trusted peer pushes it back.
func (n *Node[R, PR]) arm(i int, wait time.Duration) {
	if n.cfg.Poll <= 0 {
		n.clock.Set(peerSlot+i, wait)
	}
}

// peer returns the index in recs of the peer id, or -1.
func (n *Node[R, PR]) peer(id ident.ID) int { return int(n.byID.Get(id)) - 1 }

// Deliver implements node.Handler.
func (n *Node[R, PR]) Deliver(from ident.ID, payload any) {
	m, ok := payload.(Message)
	if !ok {
		return
	}
	i := n.peer(from)
	if i < 0 || n.stopped {
		return
	}
	p, now := &n.recs[i], n.env.Now()
	deadline, ok := PR(&p.rule).Beat(m.Seq, now, p.suspected)
	if !ok {
		return
	}
	if p.suspected {
		p.suspected = false
		n.emit(from, false)
	}
	n.arm(i, deadline-now)
}

func (n *Node[R, PR]) emit(subject ident.ID, suspected bool) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), subject, suspected)
	}
}

// Snapshot implements node.Cloneable.
func (n *Node[R, PR]) Snapshot() any {
	s := new(state[R, PR])
	n.state.copyTo(s)
	return s
}

// Restore implements node.Cloneable.
func (n *Node[R, PR]) Restore(snap any) {
	snap.(*state[R, PR]).copyTo(&n.state)
}

// Suspects implements fd.Detector.
func (n *Node[R, PR]) Suspects() ident.Set {
	var out ident.Set
	for i := range n.recs {
		if n.recs[i].suspected {
			out.Add(n.recs[i].id)
		}
	}
	return out
}

// IsSuspected implements fd.Detector.
func (n *Node[R, PR]) IsSuspected(id ident.ID) bool {
	i := n.peer(id)
	return i >= 0 && n.recs[i].suspected
}

// Peek runs fn on the rule the node keeps for id, at the node's current
// time, and reports whether id is monitored. It is how a kind exposes a
// diagnostic of its rule (φ) without the runtime knowing it.
func (n *Node[R, PR]) Peek(id ident.ID, fn func(rule PR, now time.Duration)) bool {
	i := n.peer(id)
	if i < 0 {
		return false
	}
	fn(&n.recs[i].rule, n.env.Now())
	return true
}
