package heartbeat

import (
	"slices"

	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/node"
)

// VectorMessage is a gossiped heartbeat vector: entry k is the highest
// heartbeat counter known to have been emitted by process k.
type VectorMessage struct {
	From   ident.ID
	Vector []uint64
}

// GossipNode is the Friedman–Tcharny-style detector for partially connected
// systems: the fixed-timeout rule on the heartbeat family's runtime, polled
// every Δ, behind a relay that floods heartbeat counters. Every Δ it
// broadcasts to its neighbours its vector, with its own entry set to the
// heartbeat's sequence number; on reception it merges entry-wise maxima, and
// an entry that rose is a sighting of its process. A process is suspected
// when its entry stalls for Θ, which must therefore cover multi-hop
// propagation. The tick, the poll, the suspicion flags, Start, Suspects and
// the runtime's half of Restart, Stop and the checkpoint are monitor.Node's.
type GossipNode struct {
	*Node //fdlint:allow clonefields the runtime, checkpointed by its own Snapshot inside GossipNode's
	gossipState
}

// gossipState is the relay's half of the node.Cloneable checkpoint.
type gossipState struct {
	// vector holds one counter per process. The own entry is the runtime's
	// last heartbeat sequence number, which a fresh Restart keeps: peers
	// merge by maximum and would discard a sender that began again at 1.
	vector []uint64
	// stopped is the runtime's own flag, mirrored: a stopped node merges
	// nothing.
	stopped bool
}

// copyTo makes dst a copy of s that shares no storage with it, reusing dst's.
func (s *gossipState) copyTo(dst *gossipState) {
	vector := dst.vector
	*dst = *s
	dst.vector = append(vector[:0], s.vector...)
}

// gossipEnv is the network as the runtime sees it: its heartbeat leaves as
// the vector.
type gossipEnv struct {
	node.Env
	g *GossipNode
}

func (e gossipEnv) Broadcast(payload any) {
	m := payload.(Message)
	e.g.vector[m.From] = m.Seq
	e.Env.Broadcast(VectorMessage{From: m.From, Vector: slices.Clone(e.g.vector)})
}

// NewGossipNode builds a gossip detector on env. cfg.Peers is every process
// whose counter it carries and watches, neighbour or not.
func NewGossipNode(env node.Env, cfg Config) (*GossipNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := int(cfg.Self) + 1
	cfg.Peers.ForEach(func(id ident.ID) bool {
		size = max(size, int(id)+1)
		return true
	})
	g := &GossipNode{gossipState: gossipState{vector: make([]uint64, size)}}
	g.Node = monitor.New[Estimator, *Estimator](gossipEnv{env, g}, monitor.Config{
		Self: cfg.Self, Peers: cfg.Peers, Interval: cfg.Interval, Poll: cfg.Interval, Sink: cfg.Sink,
	}, Estimator{timeout: cfg.Timeout})
	return g, nil
}

// Deliver implements node.Handler: the entry-wise max merge. Each entry that
// rose is handed to the runtime as a heartbeat of its process.
func (g *GossipNode) Deliver(_ ident.ID, payload any) {
	m, ok := payload.(VectorMessage)
	if !ok || g.stopped {
		return
	}
	for i, v := range m.Vector[:min(len(m.Vector), len(g.vector))] {
		if v > g.vector[i] {
			g.vector[i] = v
			g.Node.Deliver(ident.ID(i), Message{From: ident.ID(i), Seq: v})
		}
	}
}

// Restart implements fd.Restartable. With fresh state the reboot lost what it
// knew of the others' counters; its own entry is rewritten by the heartbeat
// the runtime sends at once.
func (g *GossipNode) Restart(fresh bool) {
	if fresh {
		clear(g.vector)
	}
	g.stopped = false
	g.Node.Restart(fresh)
}

// Stop halts gossiping, merging and suspicion checks.
func (g *GossipNode) Stop() {
	g.stopped = true
	g.Node.Stop()
}

// gossipSnapshot is a GossipNode checkpoint: the runtime's and the relay's.
type gossipSnapshot struct {
	node  any
	relay gossipState
}

// Snapshot implements node.Cloneable.
func (g *GossipNode) Snapshot() any {
	s := &gossipSnapshot{node: g.Node.Snapshot()}
	g.gossipState.copyTo(&s.relay)
	return s
}

// Restore implements node.Cloneable.
func (g *GossipNode) Restore(snap any) {
	s := snap.(*gossipSnapshot)
	g.Node.Restore(s.node)
	s.relay.copyTo(&g.gossipState)
}
