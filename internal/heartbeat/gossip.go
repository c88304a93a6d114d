package heartbeat

import (
	"errors"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// VectorMessage is a gossiped heartbeat vector: entry k is the highest
// heartbeat counter known to have been emitted by process k.
type VectorMessage struct {
	From   ident.ID
	Vector []uint64
}

// GossipConfig parameterizes a Friedman–Tcharny-style gossip detector.
type GossipConfig struct {
	// Self is this process's identity.
	Self ident.ID
	// N is the total number of processes (the vector length); the gossip
	// variant assumes the number of nodes is known, as in the original.
	N int
	// Interval is the gossip period Δ.
	Interval time.Duration
	// Timeout is the suspicion timeout Θ: a process whose counter has not
	// increased for Θ is suspected. Θ must account for multi-hop
	// propagation.
	Timeout time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Validate checks the configuration.
func (c GossipConfig) Validate() error {
	if !c.Self.Valid() || int(c.Self) >= c.N {
		return errors.New("heartbeat: gossip config: Self out of range")
	}
	if c.N < 2 {
		return errors.New("heartbeat: gossip config: N must be ≥ 2")
	}
	if c.Interval <= 0 || c.Timeout <= 0 {
		return errors.New("heartbeat: gossip config: Interval and Timeout must be positive")
	}
	return nil
}

// GossipNode floods heartbeat counters through neighbor broadcasts: every Δ
// it increments its own vector entry and broadcasts the vector; on reception
// it merges entry-wise maxima. A peer is suspected when its entry stalls for
// Θ. Works over partially connected topologies because counters propagate
// transitively. It holds no lock: like every node, it is called only in its
// runtime's callback context (node.Env).
type GossipNode struct {
	env node.Env     //fdlint:allow clonefields immutable wiring, set once at construction
	cfg GossipConfig //fdlint:allow clonefields immutable config, set once at construction
	gossipState
}

// gossipState is everything about a GossipNode a run changes, and so the
// node.Cloneable checkpoint: Snapshot and Restore are copyTo run in the two
// directions. The timer handle is shared by value with the live node: the
// paired kernel snapshot rewinds slot generations, so one captured in a
// checkpoint is pending again after Restore.
type gossipState struct {
	vector    []uint64
	lastRise  []time.Duration
	suspected ident.Set
	stopped   bool
	beat      node.Timer
}

// copyTo makes dst a copy of s that shares no storage with it, reusing dst's.
func (s *gossipState) copyTo(dst *gossipState) {
	vector, lastRise := dst.vector, dst.lastRise
	*dst = *s
	dst.vector = append(vector[:0], s.vector...)
	dst.lastRise = append(lastRise[:0], s.lastRise...)
	dst.suspected = s.suspected.Clone()
}

var _ node.Handler = (*GossipNode)(nil)
var _ fd.Detector = (*GossipNode)(nil)

// NewGossipNode builds a gossip heartbeat detector on env.
func NewGossipNode(env node.Env, cfg GossipConfig) (*GossipNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GossipNode{env: env, cfg: cfg}
	g.vector, g.lastRise = make([]uint64, cfg.N), make([]time.Duration, cfg.N)
	return g, nil
}

// Start begins gossiping. The start instant counts as the last sighting of
// every process.
func (g *GossipNode) Start() {
	now := g.env.Now()
	for i := range g.lastRise {
		g.lastRise[i] = now
	}
	g.tick()
}

// Restart implements fd.Restartable: gossiping resumes, and the restart
// instant counts as the last sighting of every process. With fresh state the
// reboot lost the suspicions — the trace must say so — and what it knew of
// the others' counters. Its own counter survives as an incarnation number:
// peers merge by maximum and would discard a sender that began again at 1.
func (g *GossipNode) Restart(fresh bool) {
	if g.beat != nil {
		g.beat.Stop()
	}
	g.stopped = false
	now := g.env.Now()
	for i := range g.vector {
		g.lastRise[i] = now
		id := ident.ID(i)
		if !fresh || id == g.cfg.Self {
			continue
		}
		g.vector[i] = 0
		if g.suspected.Has(id) {
			g.suspected.Remove(id)
			g.emit(id, false)
		}
	}
	g.tick()
}

// Stop halts gossiping and suspicion checks.
func (g *GossipNode) Stop() {
	g.stopped = true
	if g.beat != nil {
		g.beat.Stop()
	}
}

func (g *GossipNode) tick() {
	if g.stopped {
		return
	}
	g.vector[g.cfg.Self]++
	g.lastRise[g.cfg.Self] = g.env.Now()
	out := make([]uint64, len(g.vector))
	copy(out, g.vector)
	g.env.Broadcast(VectorMessage{From: g.cfg.Self, Vector: out})
	g.scan()
	g.beat = g.env.After(g.cfg.Interval, g.tick)
}

// scan applies the timeout rule to every entry.
func (g *GossipNode) scan() {
	now := g.env.Now()
	for i := range g.vector {
		id := ident.ID(i)
		if id == g.cfg.Self {
			continue
		}
		stale := now-g.lastRise[i] > g.cfg.Timeout
		if stale && !g.suspected.Has(id) {
			g.suspected.Add(id)
			g.emit(id, true)
		}
	}
}

// Deliver implements node.Handler: entry-wise max merge; a rising entry is a
// fresh sighting of that process.
func (g *GossipNode) Deliver(_ ident.ID, payload any) {
	m, ok := payload.(VectorMessage)
	if !ok {
		return
	}
	if g.stopped {
		return
	}
	now := g.env.Now()
	for i, v := range m.Vector {
		if i >= len(g.vector) {
			break
		}
		if v > g.vector[i] {
			g.vector[i] = v
			g.lastRise[i] = now
			id := ident.ID(i)
			if g.suspected.Has(id) {
				g.suspected.Remove(id)
				g.emit(id, false)
			}
		}
	}
}

func (g *GossipNode) emit(subject ident.ID, suspected bool) {
	if g.cfg.Sink != nil {
		g.cfg.Sink.OnSuspicion(g.env.Now(), g.cfg.Self, subject, suspected)
	}
}

// Suspects implements fd.Detector.
func (g *GossipNode) Suspects() ident.Set {
	return g.suspected.Clone()
}

// IsSuspected implements fd.Detector.
func (g *GossipNode) IsSuspected(id ident.ID) bool {
	return g.suspected.Has(id)
}

// Snapshot implements node.Cloneable.
func (g *GossipNode) Snapshot() any {
	s := new(gossipState)
	g.gossipState.copyTo(s)
	return s
}

// Restore implements node.Cloneable.
func (g *GossipNode) Restore(snap any) {
	snap.(*gossipState).copyTo(&g.gossipState)
}
