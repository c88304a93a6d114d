package heartbeat

import (
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	base := Config{Self: 0, Interval: time.Second, Timeout: 2 * time.Second}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Self: ident.Nil, Interval: time.Second, Timeout: time.Second},
		{Self: 0, Interval: 0, Timeout: time.Second},
		{Self: 0, Interval: time.Second, Timeout: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

type hbCluster struct {
	sim   *des.Simulator
	net   *netsim.Network
	nodes []*Node
	log   *trace.Log
}

func newHBCluster(t *testing.T, n int, delay netsim.DelayModel, interval, timeout time.Duration) *hbCluster {
	t.Helper()
	c := &hbCluster{sim: des.New(1), log: &trace.Log{}}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	peers := ident.FullSet(n)
	c.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		var nd *Node
		env := c.net.AddNode(id, proxy{&nd})
		var err error
		nd, err = NewNode(env, Config{Self: id, Peers: peers, Interval: interval, Timeout: timeout, Sink: c.log})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = nd
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c
}

type proxy struct{ n **Node }

func (p proxy) Deliver(from ident.ID, payload any) {
	if *p.n != nil {
		(*p.n).Deliver(from, payload)
	}
}

func TestHeartbeatNoFalseSuspicionsStableNet(t *testing.T) {
	c := newHBCluster(t, 4, netsim.Constant{D: 5 * time.Millisecond}, time.Second, 2500*time.Millisecond)
	c.sim.RunUntil(30 * time.Second)
	if c.log.Len() != 0 {
		t.Errorf("false suspicions on a stable network:\n%s", c.log)
	}
}

func TestHeartbeatDetectsCrashWithinTimeout(t *testing.T) {
	const (
		interval = time.Second
		timeout  = 2 * time.Second
		crashAt  = 5 * time.Second
	)
	c := newHBCluster(t, 4, netsim.Constant{D: time.Millisecond}, interval, timeout)
	c.sim.At(crashAt, func() { c.net.Crash(3) })
	c.sim.RunUntil(20 * time.Second)

	for i := 0; i < 3; i++ {
		at, ok := c.log.FirstSuspicion(ident.ID(i), 3)
		if !ok {
			t.Fatalf("node %d never suspected the crashed process", i)
		}
		// Detection happens between Θ and Θ+Δ after the last heartbeat,
		// which itself is at most Δ before the crash.
		lo, hi := crashAt, crashAt+timeout+interval+10*time.Millisecond
		if at < lo || at > hi {
			t.Errorf("node %d detected at %v, want within (%v, %v]", i, at, lo, hi)
		}
		if !c.nodes[i].IsSuspected(3) {
			t.Errorf("node %d suspicion not permanent", i)
		}
	}
}

func TestHeartbeatRestoresAfterDisturbance(t *testing.T) {
	delay := netsim.Disturbance{
		Base:   netsim.Constant{D: time.Millisecond},
		Nodes:  ident.SetOf(2),
		Start:  5 * time.Second,
		End:    10 * time.Second,
		Factor: 10000, // ≈10s delays: heartbeats outrun the timeout
	}
	c := newHBCluster(t, 3, delay, time.Second, 2*time.Second)
	c.sim.RunUntil(40 * time.Second)

	suspected := false
	for _, e := range c.log.Events() {
		if e.Subject == 2 && e.Suspected {
			suspected = true
		}
	}
	if !suspected {
		t.Fatal("disturbance did not trigger suspicion; scenario too weak")
	}
	for i := 0; i < 2; i++ {
		if c.nodes[i].IsSuspected(2) {
			t.Errorf("node %d did not restore p2 after the disturbance", i)
		}
	}
}

// --- Gossip variant ---

// lineTopology wires n gossip nodes in a path 0–1–2–…–(n−1).
func lineTopology(t *testing.T, n int, interval, timeout time.Duration) (*des.Simulator, *netsim.Network, []*GossipNode, *trace.Log) {
	t.Helper()
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{D: time.Millisecond}})
	log := &trace.Log{}
	nodes := make([]*GossipNode, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		var g *GossipNode
		env := net.AddNode(id, gproxy{&g})
		var err error
		g, err = NewGossipNode(env, Config{Self: id, Peers: ident.FullSet(n), Interval: interval, Timeout: timeout, Sink: log})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = g
	}
	for i := 0; i < n; i++ {
		var nb ident.Set
		if i > 0 {
			nb.Add(ident.ID(i - 1))
		}
		if i < n-1 {
			nb.Add(ident.ID(i + 1))
		}
		net.SetNeighbors(ident.ID(i), nb)
	}
	for _, g := range nodes {
		g.Start()
	}
	return sim, net, nodes, log
}

type gproxy struct{ g **GossipNode }

func (p gproxy) Deliver(from ident.ID, payload any) {
	if *p.g != nil {
		(*p.g).Deliver(from, payload)
	}
}

func TestGossipPropagatesAcrossHops(t *testing.T) {
	sim, _, nodes, log := lineTopology(t, 5, 500*time.Millisecond, 5*time.Second)
	sim.RunUntil(30 * time.Second)
	if log.Len() != 0 {
		t.Errorf("false suspicions on a stable line: \n%s", log)
	}
	// Node 0's counter must have reached node 4 through three hops.
	v := nodes[4].vector
	if v[0] == 0 {
		t.Error("heartbeat counter of node 0 never reached node 4")
	}
}

func TestGossipDetectsCrashOnLine(t *testing.T) {
	sim, net, nodes, log := lineTopology(t, 5, 500*time.Millisecond, 4*time.Second)
	sim.At(10*time.Second, func() { net.Crash(0) })
	sim.RunUntil(60 * time.Second)
	for i := 1; i < 5; i++ {
		if !nodes[i].IsSuspected(0) {
			t.Errorf("node %d does not suspect the crashed end of the line", i)
		}
		if at, ok := log.FirstSuspicion(ident.ID(i), 0); !ok || at < 10*time.Second {
			t.Errorf("node %d suspicion time = %v, ok=%v", i, at, ok)
		}
	}
	// The crash of an end node must not contaminate the others.
	for i := 1; i < 5; i++ {
		for j := 1; j < 5; j++ {
			if i != j && nodes[i].IsSuspected(ident.ID(j)) {
				t.Errorf("node %d wrongly suspects live node %d", i, j)
			}
		}
	}
}

func TestGossipRestore(t *testing.T) {
	// Disconnect node 4 from the line for a while; it must be suspected and
	// then restored once reconnected.
	sim, net, nodes, _ := lineTopology(t, 5, 500*time.Millisecond, 3*time.Second)
	sim.At(10*time.Second, func() { net.Partition([]ident.ID{4}) })
	sim.At(20*time.Second, func() { net.Heal() })
	sim.RunUntil(60 * time.Second)
	for i := 0; i < 4; i++ {
		if nodes[i].IsSuspected(4) {
			t.Errorf("node %d still suspects reconnected node 4", i)
		}
	}
	if nodes[4].IsSuspected(3) {
		t.Error("node 4 still suspects its neighbor after reconnection")
	}
}

func TestGossipIgnoresShortAndForeignVectors(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	var g *GossipNode
	env := net.AddNode(0, gproxy{&g})
	other := net.AddNode(1, gproxy{new(*GossipNode)})
	var err error
	g, err = NewGossipNode(env, Config{Self: 0, Peers: ident.FullSet(3), Interval: time.Second, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	other.Send(0, VectorMessage{From: 1, Vector: []uint64{0, 7}})          // short vector
	other.Send(0, VectorMessage{From: 1, Vector: []uint64{0, 1, 2, 3, 4}}) // long vector
	other.Send(0, 42)                                                      // foreign payload
	sim.RunUntil(time.Second)
	v := g.vector
	if v[1] != 7 || v[2] != 2 {
		t.Errorf("vector merge = %v, want [_,7,2]", v)
	}
}

func BenchmarkHeartbeatTick(b *testing.B) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{D: time.Millisecond}})
	peers := ident.FullSet(16)
	nodes := make([]*Node, 16)
	for i := 0; i < 16; i++ {
		id := ident.ID(i)
		var nd *Node
		env := net.AddNode(id, proxy{&nd})
		var err error
		nd, err = NewNode(env, Config{Self: id, Peers: peers, Interval: 100 * time.Millisecond, Timeout: 300 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = nd
	}
	for _, nd := range nodes {
		nd.Start()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.RunUntil(sim.Now() + 100*time.Millisecond)
	}
}

func TestRestartFreshClearsSuspicionsAndResumes(t *testing.T) {
	c := newHBCluster(t, 3, netsim.Constant{D: time.Millisecond}, time.Second, 2*time.Second)
	// p2 crashes; p0 and p1 suspect it.
	c.sim.At(5*time.Second, func() { c.net.Crash(2) })
	c.sim.RunUntil(10 * time.Second)
	if !c.nodes[0].IsSuspected(2) {
		t.Fatal("crash not detected")
	}
	c.sim.At(12*time.Second, func() {
		c.net.Recover(2)
		c.nodes[2].Restart(true)
	})
	c.sim.RunUntil(20 * time.Second)
	if c.nodes[0].IsSuspected(2) || c.nodes[1].IsSuspected(2) {
		t.Error("restarted process still suspected after its heartbeats resumed")
	}
	if n := c.nodes[2].Suspects().Len(); n != 0 {
		t.Errorf("fresh restart kept %d suspicions", n)
	}
}
