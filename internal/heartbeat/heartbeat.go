// Package heartbeat implements the classical timer-based unreliable failure
// detector that the paper argues against: every process broadcasts a
// heartbeat every Δ; a monitor suspects a peer when no heartbeat arrives for
// Θ, and revokes the suspicion when one finally does.
//
// Two variants are provided:
//
//   - Node: the direct all-to-all detector for fully connected systems
//     (Chandra–Toueg-style, the default comparator in experiments E1–E7).
//   - GossipNode: the Friedman–Tcharny-style vector detector for partially
//     connected systems — heartbeat counters are flooded through neighbor
//     broadcasts, so liveness information crosses multiple hops (used by the
//     extension experiments X1/X2).
//
// Both variants need the timing assumption the time-free detector avoids: Θ
// must dominate the (unknown) end-to-end delay, or false suspicions never
// stop.
package heartbeat

import (
	"errors"
	"sync"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Message is a direct heartbeat.
type Message struct {
	From ident.ID
	Seq  uint64
}

// Config parameterizes a direct heartbeat detector.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Peers are the monitored processes (Self is ignored if present).
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

// peerState holds the per-peer suspicion timeout. It is a pointer target so
// the hot re-arm path (every heartbeat delivery) is a direct slice index plus
// a field write, with no map operations.
type peerState struct {
	expiry node.Timer
}

// Node is the direct all-to-all heartbeat detector. It is safe for
// concurrent use.
type Node struct {
	mu        sync.Mutex
	env       node.Env //fdlint:allow clonefields immutable wiring, set once at construction
	cfg       Config   //fdlint:allow clonefields immutable config, set once at construction
	seq       uint64
	suspected ident.Set
	peers     node.DenseMap[*peerState]
	stopped   bool
	beat      node.Timer
}

var _ node.Handler = (*Node)(nil)
var _ fd.Detector = (*Node)(nil)
var _ fd.Restartable = (*Node)(nil)
var _ node.Cloneable = (*Node)(nil)

// NewNode builds a direct heartbeat detector on env.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Peers = cfg.Peers.Clone()
	cfg.Peers.Remove(cfg.Self)
	n := &Node{env: env, cfg: cfg}
	cfg.Peers.ForEach(func(p ident.ID) bool {
		n.peers.Put(p, &peerState{})
		return true
	})
	return n, nil
}

// Start begins heartbeating and arms the initial timeout for every peer (the
// start of monitoring counts as the last sighting, avoiding instant
// suspicions).
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Peers.ForEach(func(p ident.ID) bool {
		n.armLocked(p)
		return true
	})
	n.tickLocked()
}

// Restart implements fd.Restartable: after a crash-recovery, the node
// re-arms every suspicion timeout (the restart counts as the last sighting
// of every peer, like Start) and resumes heartbeating. With fresh state the
// reboot lost the suspicion set, so the oracle output transitions every
// suspected peer back to trusted; with persisted state suspicions survive
// until the peers' heartbeats clear them.
func (n *Node) Restart(fresh bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.beat != nil {
		n.beat.Stop()
	}
	n.peers.ForEach(func(_ ident.ID, st *peerState) bool {
		if st.expiry != nil {
			st.expiry.Stop()
		}
		return true
	})
	n.stopped = false
	if fresh {
		n.suspected.ForEach(func(p ident.ID) bool {
			n.emitLocked(p, false)
			return true
		})
		n.suspected.Clear()
		n.seq = 0
	}
	n.cfg.Peers.ForEach(func(p ident.ID) bool {
		n.armLocked(p)
		return true
	})
	n.tickLocked()
}

// Stop halts heartbeating and suspicion timers.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	if n.beat != nil {
		n.beat.Stop()
	}
	n.peers.ForEach(func(_ ident.ID, st *peerState) bool {
		if st.expiry != nil {
			st.expiry.Stop()
		}
		return true
	})
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

// armLocked (re)arms the expiry timer for peer p: a pending one is pushed
// back in place, which is what every heartbeat from a trusted peer does.
func (n *Node) armLocked(p ident.ID) {
	st := n.peers.Get(p)
	if st.expiry != nil {
		if st.expiry.Reset(n.cfg.Timeout) {
			return
		}
		st.expiry.Stop()
	}
	st.expiry = n.env.After(n.cfg.Timeout, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.stopped || n.suspected.Has(p) {
			return
		}
		n.suspected.Add(p)
		n.emitLocked(p, true)
	})
}

// Deliver implements node.Handler.
func (n *Node) Deliver(from ident.ID, payload any) {
	if _, ok := payload.(Message); !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped || !n.cfg.Peers.Has(from) {
		return
	}
	if n.suspected.Has(from) {
		n.suspected.Remove(from)
		n.emitLocked(from, false)
	}
	n.armLocked(from)
}

func (n *Node) emitLocked(subject ident.ID, suspected bool) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), subject, suspected)
	}
}

// snapshot is the node.Cloneable checkpoint of a heartbeat detector: the
// sequence counter, the suspicion set and the live timer handles. Timer
// handles are shared by value with the live node — des.Timer handles are
// immutable, and the paired kernel snapshot rewinds slot generations so a
// handle captured here is pending again after Restore.
type snapshot struct {
	seq       uint64
	suspected ident.Set
	expiry    map[ident.ID]node.Timer
	stopped   bool
	beat      node.Timer
}

// Snapshot implements node.Cloneable.
func (n *Node) Snapshot() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	expiry := make(map[ident.ID]node.Timer, n.peers.Len())
	n.peers.ForEach(func(p ident.ID, st *peerState) bool {
		if st.expiry != nil {
			expiry[p] = st.expiry
		}
		return true
	})
	return &snapshot{
		seq:       n.seq,
		suspected: n.suspected.Clone(),
		expiry:    expiry,
		stopped:   n.stopped,
		beat:      n.beat,
	}
}

// Restore implements node.Cloneable: writes each saved timer handle back into
// the live peerState (clearing peers the checkpoint had no timer for).
func (n *Node) Restore(snap any) {
	s := snap.(*snapshot)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq = s.seq
	n.suspected = s.suspected.Clone()
	n.peers.ForEach(func(p ident.ID, st *peerState) bool {
		st.expiry = s.expiry[p]
		return true
	})
	n.stopped = s.stopped
	n.beat = s.beat
}

// Suspects implements fd.Detector.
func (n *Node) Suspects() ident.Set {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.suspected.Clone()
}

// IsSuspected implements fd.Detector.
func (n *Node) IsSuspected(id ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.suspected.Has(id)
}
