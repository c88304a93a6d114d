// Package chen implements the NFD-E failure detector of Chen, Toueg and
// Aguilera ("On the quality of service of failure detectors"): heartbeats
// are sent every Δ; the monitor estimates the expected arrival time EA of
// the next heartbeat from a window of past arrivals and suspects the sender
// when the clock passes EA + α. It is the classic adaptive *expected-arrival*
// detector, complementing the φ-accrual comparator.
package chen

import (
	"errors"
	"sync"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Message is a sequence-numbered heartbeat.
type Message struct {
	From ident.ID
	Seq  uint64
}

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
	// WindowSize bounds the arrival sample window (default 100).
	WindowSize int
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
	if c.WindowSize < 0 {
		return errors.New("chen: config: negative WindowSize")
	}
	return nil
}

// sample is one heartbeat observation.
type sample struct {
	seq     uint64
	arrival time.Duration
}

// peerState tracks one monitored process.
type peerState struct {
	samples []sample // ring, bounded by WindowSize
	next    int
	maxSeq  uint64
	// sumArrival/sumSeq are the running window sums Σ arrival and Σ seq,
	// maintained by push so expectedArrival is O(1) instead of re-walking
	// the window on every heartbeat. Integer arithmetic, so the incremental
	// sums equal the walked ones exactly.
	sumArrival time.Duration
	sumSeq     uint64
	suspected  bool
	timer      node.Timer
	// bootstrap marks a window holding only the synthetic restart sample;
	// the first real heartbeat replaces it wholesale, because mixing the
	// restart-era sample with post-restart sequence numbers would corrupt
	// the expected-arrival estimate.
	bootstrap bool
}

// Node is an NFD-E detector node. Safe for concurrent use.
type Node struct {
	mu      sync.Mutex
	env     node.Env //fdlint:allow clonefields immutable wiring, set once at construction
	cfg     Config   //fdlint:allow clonefields immutable config, set once at construction
	peers   node.DenseMap[*peerState]
	seq     uint64
	stopped bool
	beat    node.Timer
}

var _ node.Handler = (*Node)(nil)
var _ fd.Detector = (*Node)(nil)
var _ fd.Restartable = (*Node)(nil)
var _ node.Cloneable = (*Node)(nil)

// NewNode builds an NFD-E detector on env.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 100
	}
	n := &Node{env: env, cfg: cfg}
	cfg.Peers.ForEach(func(p ident.ID) bool {
		if p != cfg.Self {
			n.peers.Put(p, &peerState{})
		}
		return true
	})
	return n, nil
}

// Start begins heartbeating and arms the initial expectation for every peer
// as if heartbeat 0 had just arrived.
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.env.Now()
	// Sorted peer order, not map order: the bootstrap deadlines coincide,
	// and same-instant timers fire in insertion order, so map iteration
	// would leak into the suspicion-event order across same-seed runs.
	n.cfg.Peers.ForEach(func(p ident.ID) bool {
		st := n.peers.Get(p)
		if st == nil {
			return true
		}
		st.push(sample{seq: 0, arrival: now}, n.cfg.WindowSize)
		n.armLocked(p, st)
		return true
	})
	n.tickLocked()
}

// Restart implements fd.Restartable. The heartbeat sequence counter is
// never reset — it doubles as an incarnation number, so peers (which
// discard non-increasing sequences) keep trusting the restarted sender.
// Fresh state drops each peer's arrival window and suspicion (emitting the
// implied restores) and re-bootstraps monitoring with a grace period of
// Δ + α; persisted state keeps the windows, whose now-stale expected
// arrivals typically make the node suspect everyone until fresh heartbeats
// arrive — the honest cost of resuming NFD-E from old state.
func (n *Node) Restart(fresh bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.beat != nil {
		n.beat.Stop()
	}
	n.stopped = false
	now := n.env.Now()
	// Sorted peer order, not map order: the restores emitted here share a
	// timestamp and the re-armed deadlines coincide, so map iteration would
	// make same-seed runs differ byte-for-byte.
	n.cfg.Peers.ForEach(func(p ident.ID) bool {
		st := n.peers.Get(p)
		if st == nil {
			return true
		}
		if st.timer != nil {
			st.timer.Stop()
		}
		if fresh {
			if st.suspected {
				n.emitLocked(p, false)
			}
			*st = peerState{bootstrap: true}
			st.push(sample{seq: 0, arrival: now}, n.cfg.WindowSize)
		}
		n.armLocked(p, st)
		return true
	})
	n.tickLocked()
}

// Stop halts heartbeating and monitoring.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	if n.beat != nil {
		n.beat.Stop()
	}
	n.peers.ForEach(func(_ ident.ID, st *peerState) bool {
		if st.timer != nil {
			st.timer.Stop()
		}
		return true
	})
}

func (st *peerState) push(s sample, capacity int) {
	if len(st.samples) < capacity {
		st.samples = append(st.samples, s)
	} else {
		old := st.samples[st.next]
		st.sumArrival -= old.arrival
		st.sumSeq -= old.seq
		st.samples[st.next] = s
		st.next = (st.next + 1) % capacity
	}
	st.sumArrival += s.arrival
	st.sumSeq += s.seq
	if s.seq > st.maxSeq {
		st.maxSeq = s.seq
	}
}

// rebase empties the window (and its running sums) so the next push starts a
// fresh estimation era.
func (st *peerState) rebase() {
	st.samples = st.samples[:0]
	st.next = 0
	st.sumArrival = 0
	st.sumSeq = 0
}

// expectedArrival estimates EA for heartbeat maxSeq+1: the average of
// (A_i − Δ·seq_i) over the window, plus Δ·(maxSeq+1). The window sums are
// maintained incrementally by push; Σ(A_i − Δ·seq_i) = ΣA_i − Δ·Σseq_i
// exactly in integer arithmetic, so this matches the walked sum byte for
// byte at O(1) per heartbeat.
func (st *peerState) expectedArrival(interval time.Duration) time.Duration {
	if len(st.samples) == 0 {
		return 0
	}
	sum := st.sumArrival - time.Duration(st.sumSeq)*interval
	base := sum / time.Duration(len(st.samples))
	return base + time.Duration(st.maxSeq+1)*interval
}

func (n *Node) tickLocked() {
	if n.stopped {
		return
	}
	n.seq++
	n.env.Broadcast(Message{From: n.env.Self(), Seq: n.seq})
	n.beat = n.env.After(n.cfg.Interval, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.tickLocked()
	})
}

// armLocked schedules the suspicion deadline EA + α for peer p: a pending
// deadline is moved in place when the runtime can (the estimate mostly moves
// it later, once per heartbeat).
func (n *Node) armLocked(p ident.ID, st *peerState) {
	deadline := st.expectedArrival(n.cfg.Interval) + n.cfg.Alpha
	wait := deadline - n.env.Now()
	if st.timer != nil {
		if st.timer.Reset(wait) {
			return
		}
		st.timer.Stop()
	}
	st.timer = n.env.After(wait, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || st.suspected {
			return
		}
		st.suspected = true
		n.emitLocked(p, true)
	})
}

// Deliver implements node.Handler.
func (n *Node) Deliver(from ident.ID, payload any) {
	m, ok := payload.(Message)
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.peers.Get(from)
	if st == nil || n.stopped {
		return
	}
	if m.Seq <= st.maxSeq {
		return // stale or reordered heartbeat; the freshest already counted
	}
	if st.bootstrap || st.suspected {
		// A heartbeat from a suspected peer proves the expected-arrival
		// estimate wrong — after a sender's downtime the estimate stays
		// wrong forever, because the sequence numbers stopped advancing
		// while the clock did not. Rebase the window on this arrival alone
		// (as with the restart bootstrap) instead of mixing incompatible
		// eras, which would otherwise flap once per heartbeat until the
		// window turns over.
		st.rebase()
		st.bootstrap = false
	}
	st.push(sample{seq: m.Seq, arrival: n.env.Now()}, n.cfg.WindowSize)
	if st.suspected {
		st.suspected = false
		n.emitLocked(from, false)
	}
	n.armLocked(from, st)
}

func (n *Node) emitLocked(subject ident.ID, suspected bool) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), subject, suspected)
	}
}

// snapshot is the node.Cloneable checkpoint: one deep-copied peerState per
// peer plus the sender-side counters. The suspicion-deadline timer handles
// are shared by value — armLocked closures capture the live *peerState, and
// the paired kernel snapshot revalidates the handles — so Restore writes
// back into the SAME peerState objects those closures hold.
type snapshot struct {
	peers   map[ident.ID]peerState
	seq     uint64
	stopped bool
	beat    node.Timer
}

// clonePeer deep-copies st (the samples window is the only reference field;
// the timer handle is immutable and shared).
func clonePeer(st *peerState) peerState {
	out := *st
	out.samples = append([]sample(nil), st.samples...)
	return out
}

// Snapshot implements node.Cloneable.
func (n *Node) Snapshot() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make(map[ident.ID]peerState, n.peers.Len())
	n.peers.ForEach(func(p ident.ID, st *peerState) bool {
		peers[p] = clonePeer(st)
		return true
	})
	return &snapshot{peers: peers, seq: n.seq, stopped: n.stopped, beat: n.beat}
}

// Restore implements node.Cloneable: rolls each live *peerState back in
// place, preserving the object identities captured by pending timer
// closures.
func (n *Node) Restore(snap any) {
	s := snap.(*snapshot)
	n.mu.Lock()
	defer n.mu.Unlock()
	//fdlint:allow maprange per-peer in-place writes; each iteration touches only peer p's state
	for p, saved := range s.peers {
		st := n.peers.Get(p)
		samples := append(st.samples[:0], saved.samples...)
		*st = saved
		st.samples = samples
	}
	n.seq = s.seq
	n.stopped = s.stopped
	n.beat = s.beat
}

// Suspects implements fd.Detector.
func (n *Node) Suspects() ident.Set {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out ident.Set
	n.peers.ForEach(func(p ident.ID, st *peerState) bool {
		if st.suspected {
			out.Add(p)
		}
		return true
	})
	return out
}

// IsSuspected implements fd.Detector.
func (n *Node) IsSuspected(id ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.peers.Get(id)
	return st != nil && st.suspected
}
