package exp

import (
	"math/rand"
	"testing"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/faults"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/topology"
)

// The detector in its extension setting (unknown membership, partial
// connectivity, mobility): KindAsync on ClusterConfig.Graph.

func graphConfig(g *topology.Graph, f int) ClusterConfig {
	return ClusterConfig{
		Kind:        KindAsync,
		Graph:       g,
		F:           f,
		Seed:        1,
		Delay:       netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond},
		StartJitter: -1,
		Window:      20 * time.Millisecond,
		Interval:    100 * time.Millisecond,
		Rebroadcast: 500 * time.Millisecond,
	}
}

// knownBy is the membership p has learned so far.
func knownBy(c *Cluster, p ident.ID) ident.Set { return c.Detector(p).(*core.Node).Known() }

func TestNewGraphClusterValidation(t *testing.T) {
	g := topology.Circulant(8, 2) // d = 5
	if _, err := NewCluster(ClusterConfig{Kind: KindAsync, F: 1, Delay: netsim.Constant{}}); err == nil {
		t.Error("neither graph nor N accepted")
	}
	if _, err := NewCluster(ClusterConfig{Kind: KindAsync, Graph: g, F: 1}); err == nil {
		t.Error("missing delay accepted")
	}
	if _, err := NewCluster(ClusterConfig{Kind: KindAsync, Graph: g, F: 4, Delay: netsim.Constant{}}); err == nil {
		t.Error("d ≤ f+1 accepted")
	}
	c, err := NewCluster(ClusterConfig{Kind: KindAsync, Graph: g, N: 3, F: 1, Delay: netsim.Constant{}})
	if err != nil || c.Members.Len() != 8 {
		t.Errorf("N is the graph's order: members %v, err %v", c.Members, err)
	}
}

func TestMembershipDiscovery(t *testing.T) {
	// After a few rounds every node's known set must equal its range
	// (1-hop neighbors + itself): membership is learned, never configured.
	g := topology.Circulant(10, 2)
	c, err := NewCluster(graphConfig(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(2 * time.Second)
	for i := 0; i < 10; i++ {
		id := ident.ID(i)
		known := knownBy(c, id)
		want := g.Neighbors(id)
		want.Add(id)
		if !known.Equal(want) {
			t.Errorf("node %v known = %v, want its range %v", id, known, want)
		}
	}
}

func TestCompletenessAcrossHops(t *testing.T) {
	// C_12(1,2): diameter 3. A crash must eventually be suspected by every
	// correct node, including those multiple hops away (gossip inside
	// queries).
	g := topology.Circulant(12, 2) // d = 5
	c, err := NewCluster(graphConfig(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Apply(faults.Schedule{}.CrashAt(0, 3*time.Second))
	c.RunUntil(60 * time.Second)
	for i := 1; i < 12; i++ {
		if !c.Detector(ident.ID(i)).IsSuspected(0) {
			t.Errorf("node %d (multi-hop) does not suspect the crashed node", i)
		}
	}
	// And nobody suspects a live node at the end.
	for i := 1; i < 12; i++ {
		s := c.Detector(ident.ID(i)).Suspects()
		s.Remove(0)
		if s.Len() != 0 {
			t.Errorf("node %d holds false suspicions %v", i, s)
		}
	}
}

func TestDisconnectReconnectSelfCorrects(t *testing.T) {
	g := topology.Circulant(10, 3) // d = 7
	cfg := graphConfig(g, 2)
	cfg.Mobility = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RelocateAt(0, g.Neighbors(0), 5*time.Second, 10*time.Second) // back where it was
	c.RunUntil(60 * time.Second)

	// During the absence, someone must have suspected the mover.
	if _, ok := c.Log.FirstSuspicion(1, 0); !ok {
		t.Fatal("neighbor never suspected the disconnected node; scenario too weak")
	}
	// Long after reconnection, no suspicions remain in either direction.
	for i := 0; i < 10; i++ {
		if s := c.Detector(ident.ID(i)).Suspects(); s.Len() != 0 {
			t.Errorf("node %d still suspects %v after reconnection", i, s)
		}
	}
}

func TestRelocateEvictsOldRangeFromKnown(t *testing.T) {
	// Full mobility: node 0 moves from one side of the ring to the other.
	// With the mobility rule, its old neighbors must eventually evict it
	// from their known sets (and vice versa), ending the ping-pong of
	// suspicions.
	g := topology.Circulant(20, 3) // d = 7
	cfg := graphConfig(g, 2)
	cfg.Mobility = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newNeighbors := ident.SetOf(9, 10, 11, 12, 13, 14)
	c.RelocateAt(0, newNeighbors, 5*time.Second, 10*time.Second)
	c.RunUntil(120 * time.Second)

	// No lingering suspicions anywhere.
	for i := 0; i < 20; i++ {
		if s := c.Detector(ident.ID(i)).Suspects(); s.Len() != 0 {
			t.Errorf("node %d still suspects %v long after the move", i, s)
		}
	}
	// The mover's known set must now be its new range.
	known := knownBy(c, 0)
	want := newNeighbors.Clone()
	want.Add(0)
	if !known.Equal(want) {
		t.Errorf("mover known = %v, want new range %v", known, want)
	}
	// Old direct neighbors no longer know the mover.
	for _, old := range []ident.ID{1, 2, 3, 17, 18, 19} {
		if knownBy(c, old).Has(0) {
			t.Errorf("old neighbor %v still knows the mover", old)
		}
	}
}

func TestFCoveringGeneratedTopology(t *testing.T) {
	// End-to-end on a generated f-covering network: the scale-free family
	// the topology sweeps build, checked (f+1)-connected before it is used.
	build, err := topology.Family("scale-free")
	if err != nil {
		t.Fatal(err)
	}
	gen := build(25, rand.New(rand.NewSource(7)))
	if !gen.IsFCovering(2) {
		t.Fatal("the generated graph is not 2-covering; pick another seed")
	}
	cfg := graphConfig(gen, 2)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Apply(faults.Schedule{}.CrashAt(3, 5*time.Second))
	c.RunUntil(90 * time.Second)
	for i := 0; i < 25; i++ {
		if i == 3 {
			continue
		}
		if !c.Detector(ident.ID(i)).IsSuspected(3) {
			t.Errorf("node %d does not suspect the crashed node on the geometric topology", i)
		}
	}
}

func TestCrashRecoveryOnPartialTopology(t *testing.T) {
	g := topology.Circulant(10, 2) // d = 5
	c, err := NewCluster(graphConfig(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	victim := ident.ID(0)
	c.Apply(faults.Schedule{}.CrashAt(victim, 3*time.Second))
	c.RunUntil(10 * time.Second)
	suspecting := 0
	for i := 1; i < g.Len(); i++ {
		if c.Detector(ident.ID(i)).IsSuspected(victim) {
			suspecting++
		}
	}
	if suspecting == 0 {
		t.Fatal("crash never detected on the partial topology")
	}
	// Fresh restart: the node rejoins knowing only itself, re-learns its
	// range from received queries, and the network re-trusts it.
	c.Apply(faults.Schedule{}.RecoverAt(victim, 12*time.Second, true))
	c.RunUntil(30 * time.Second)
	for i := 1; i < g.Len(); i++ {
		if c.Detector(ident.ID(i)).IsSuspected(victim) {
			t.Errorf("p%d still suspects the recovered p0", i)
		}
	}
	if got := knownBy(c, victim); got.Len() < 2 {
		t.Errorf("restarted node re-learned only %v", got)
	}
}

// TestClusterSnapshotRestoreReplays: a checkpoint taken mid-run and restored
// in place replays the same future, as often as it is restored — every kind,
// on a graph. The checkpoint falls while a crash is being detected, so the
// runtimes' opinions, raised and pending, are in it; and a move follows it:
// the neighbour map travels in netsim.Snapshot, so Restore must put the
// mover back.
func TestClusterSnapshotRestoreReplays(t *testing.T) {
	for _, kind := range everyKind {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := topology.Circulant(10, 3) // d = 7
			c, err := NewCluster(ClusterConfig{
				Kind: kind, Graph: g, F: 2, Seed: 5,
				Delay:       netsim.Exponential{Min: time.Millisecond, Mean: 300 * time.Millisecond},
				Rebroadcast: time.Second,
				Mobility:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Apply(faults.Schedule{}.CrashAt(3, 2500*time.Millisecond).RecoverAt(3, 20*time.Second, true))
			c.RunUntil(5 * time.Second)
			snap, mark := c.Snapshot(), c.Log.Len()
			future := func() string {
				c.RelocateAt(0, ident.SetOf(4, 5, 6), 8*time.Second, 12*time.Second)
				c.RunUntil(40 * time.Second)
				return c.Log.String()
			}
			want := future()
			if c.Log.Len() == mark {
				t.Fatal("nothing happened after the checkpoint; scenario too weak")
			}
			for round := 1; round <= 2; round++ {
				c.Restore(snap)
				if got := c.Net.Neighbors(0); !got.Equal(g.Neighbors(0)) {
					t.Fatalf("restore %d left the mover next to %v", round, got)
				}
				if got := future(); got != want {
					t.Fatalf("replay %d diverged:\n%s\nwant:\n%s", round, got, want)
				}
			}
		})
	}
}

// TestAttachSharesDeliveries: an attached protocol receives what the
// process's detector receives, and neither is disturbed by the other's
// payloads.
func TestAttachSharesDeliveries(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Kind: KindHeartbeat, N: 3, Seed: 1, Delay: netsim.Constant{D: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	heartbeats, hellos := ident.Set{}, 0
	c.Attach(1, node.HandlerFunc(func(from ident.ID, payload any) {
		switch payload.(type) {
		case heartbeat.Message:
			heartbeats.Add(from)
		case string:
			hellos++
		}
	}))
	c.Net.Env(0).Send(1, "hello")
	c.Apply(faults.Schedule{}.CrashAt(2, 5*time.Second))
	c.RunUntil(10 * time.Second)
	if hellos != 1 || !heartbeats.Equal(ident.SetOf(0, 2)) {
		t.Errorf("attached handler saw %d hellos and heartbeats from %v, want 1 and {0,2}", hellos, heartbeats)
	}
	if got := c.Detector(1).Suspects(); !got.Equal(ident.SetOf(2)) {
		t.Errorf("p1's detector suspects %v, want only the crashed p2", got)
	}
}
