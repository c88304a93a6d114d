package heartbeat

import (
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// reference_test.go keeps the gossip detector as it was before it ran on
// internal/monitor: its own Δ tick with the Θ scan inside it, its own
// suspicion flags, restart and stop. FuzzGossipMatchesReference holds
// GossipNode to it.

// refGossipNode floods heartbeat counters through neighbour broadcasts: every
// Δ it increments its own vector entry, broadcasts the vector and scans; on
// reception it merges entry-wise maxima. A peer is suspected when its entry
// stalls for Θ.
type refGossipNode struct {
	env       node.Env
	self      ident.ID
	interval  time.Duration
	timeout   time.Duration
	sink      fd.SuspicionSink
	vector    []uint64
	lastRise  []time.Duration
	suspected ident.Set
	stopped   bool
	beat      node.Timer
}

func newRefGossipNode(env node.Env, n int, interval, timeout time.Duration, sink fd.SuspicionSink) *refGossipNode {
	return &refGossipNode{
		env: env, self: env.Self(), interval: interval, timeout: timeout, sink: sink,
		vector: make([]uint64, n), lastRise: make([]time.Duration, n),
	}
}

// Start begins gossiping. The start instant counts as the last sighting of
// every process.
func (g *refGossipNode) Start() {
	now := g.env.Now()
	for i := range g.lastRise {
		g.lastRise[i] = now
	}
	g.tick()
}

// Restart resumes gossiping; the restart instant counts as the last sighting
// of every process. A fresh restart drops the suspicions and the others'
// counters; the own counter survives as an incarnation number.
func (g *refGossipNode) Restart(fresh bool) {
	if g.beat != nil {
		g.beat.Stop()
	}
	g.stopped = false
	now := g.env.Now()
	for i := range g.vector {
		g.lastRise[i] = now
		id := ident.ID(i)
		if !fresh || id == g.self {
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

func (g *refGossipNode) Stop() {
	g.stopped = true
	if g.beat != nil {
		g.beat.Stop()
	}
}

func (g *refGossipNode) tick() {
	if g.stopped {
		return
	}
	g.vector[g.self]++
	g.lastRise[g.self] = g.env.Now()
	out := make([]uint64, len(g.vector))
	copy(out, g.vector)
	g.env.Broadcast(VectorMessage{From: g.self, Vector: out})
	g.scan()
	g.beat = g.env.After(g.interval, g.tick)
}

func (g *refGossipNode) scan() {
	now := g.env.Now()
	for i := range g.vector {
		id := ident.ID(i)
		if id == g.self {
			continue
		}
		if now-g.lastRise[i] > g.timeout && !g.suspected.Has(id) {
			g.suspected.Add(id)
			g.emit(id, true)
		}
	}
}

// Deliver merges entry-wise maxima; a rising entry is a fresh sighting of
// that process.
func (g *refGossipNode) Deliver(_ ident.ID, payload any) {
	m, ok := payload.(VectorMessage)
	if !ok || g.stopped {
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

func (g *refGossipNode) emit(subject ident.ID, suspected bool) {
	if g.sink != nil {
		g.sink.OnSuspicion(g.env.Now(), g.self, subject, suspected)
	}
}

func (g *refGossipNode) Suspects() ident.Set { return g.suspected.Clone() }
