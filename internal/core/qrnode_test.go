package core

import (
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/trace"
)

// simCluster wires n query-response nodes over a simulated network.
type simCluster struct {
	sim   *des.Simulator
	net   *netsim.Network
	nodes []*Node
	log   *trace.Log
}

func newSimCluster(t *testing.T, seed int64, n, f int, delay netsim.DelayModel, window, interval time.Duration) *simCluster {
	t.Helper()
	c := buildSimCluster(t, seed, delay, NodeConfig{
		Detector: Config{Membership: KnownMembership, N: n, F: f},
		Window:   window,
		Interval: interval,
	})
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c
}

// buildSimCluster wires cfg.Detector.N nodes, each configured as cfg with its
// own identity and the cluster's log as its sink, and starts none of them.
func buildSimCluster(t *testing.T, seed int64, delay netsim.DelayModel, cfg NodeConfig) *simCluster {
	t.Helper()
	c := &simCluster{
		sim: des.New(seed),
		log: &trace.Log{},
	}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	c.nodes = make([]*Node, cfg.Detector.N)
	cfg.Sink = c.log
	for i := range c.nodes {
		id := ident.ID(i)
		cfg.Detector.Self = id
		// Two-phase registration: the env needs the handler, the node needs
		// the env.
		var nd *Node
		env := c.net.AddNode(id, nodeHandlerProxy{&nd})
		node, err := NewNode(env, cfg)
		if err != nil {
			t.Fatalf("NewNode(%v): %v", id, err)
		}
		nd = node
		c.nodes[i] = node
	}
	return c
}

// nodeHandlerProxy defers handler resolution until after construction.
type nodeHandlerProxy struct{ n **Node }

func (p nodeHandlerProxy) Deliver(from ident.ID, payload any) {
	if *p.n != nil {
		(*p.n).Deliver(from, payload)
	}
}

func (c *simCluster) crashAt(id ident.ID, at time.Duration) {
	c.sim.At(at, func() { c.net.Crash(id) })
}

func (c *simCluster) run(until time.Duration) { c.sim.RunUntil(until) }

func TestClusterCompleteness(t *testing.T) {
	// n=5, f=1: p4 crashes at 2s. Every correct process must eventually and
	// permanently suspect p4 (strong completeness).
	c := newSimCluster(t, 42, 5, 1,
		netsim.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond},
		10*time.Millisecond, 100*time.Millisecond)
	c.crashAt(4, 2*time.Second)
	c.run(20 * time.Second)

	for i := 0; i < 4; i++ {
		nd := c.nodes[i]
		if !nd.IsSuspected(4) {
			t.Errorf("node %d does not suspect crashed p4; suspects=%v", i, nd.Suspects())
		}
		// Permanence: the last transition about p4 is a suspicion, recorded
		// after the crash.
		var last trace.Event
		for _, e := range c.log.Events() {
			if e.Observer == ident.ID(i) && e.Subject == 4 {
				last = e
			}
		}
		if !last.Suspected {
			t.Errorf("node %d last transition about p4 = %+v, want suspicion", i, last)
		}
		if last.At < 2*time.Second {
			t.Errorf("node %d final suspicion at %v, before the crash", i, last.At)
		}
	}
}

func TestClusterEventualWeakAccuracyUnderMP(t *testing.T) {
	// The favored process p0 always answers fastest (message-pattern
	// assumption holds from the start), so no process ever suspects p0.
	delay := netsim.Bias{
		Base:    netsim.Uniform{Min: time.Millisecond, Max: 20 * time.Millisecond},
		Fast:    netsim.Constant{D: 100 * time.Microsecond},
		Favored: ident.SetOf(0),
	}
	c := newSimCluster(t, 7, 5, 1, delay, 0, 50*time.Millisecond)
	c.run(20 * time.Second)

	for _, e := range c.log.Events() {
		if e.Subject == 0 && e.Suspected {
			t.Fatalf("favored process suspected: %v", e)
		}
	}
	for i, nd := range c.nodes {
		if nd.IsSuspected(0) {
			t.Errorf("node %d suspects the favored process", i)
		}
	}
}

func TestClusterNoFalseSuspicionsWithGenerousWindow(t *testing.T) {
	// With a window larger than any possible delay spread and no crash,
	// every response is collected and the run is suspicion-free.
	c := newSimCluster(t, 3, 4, 1,
		netsim.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond},
		50*time.Millisecond, 50*time.Millisecond)
	c.run(10 * time.Second)
	if got := c.log.Len(); got != 0 {
		t.Errorf("recorded %d suspicion events in a crash-free generous-window run:\n%s", got, c.log)
	}
	for _, nd := range c.nodes {
		if nd.rounds == 0 {
			t.Error("a node completed zero rounds")
		}
	}
}

func TestClusterDisturbanceSelfCorrects(t *testing.T) {
	// p3 is transiently slowed ×100 during [3s, 6s): it gets falsely
	// suspected, then its self-refutation floods and clears every suspicion.
	delay := netsim.Disturbance{
		Base:   netsim.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond},
		Nodes:  ident.SetOf(3),
		Start:  3 * time.Second,
		End:    6 * time.Second,
		Factor: 100,
	}
	c := newSimCluster(t, 11, 5, 1, delay, 10*time.Millisecond, 100*time.Millisecond)
	c.run(30 * time.Second)

	suspectedDuring := false
	for _, e := range c.log.Events() {
		if e.Subject == 3 && e.Suspected {
			suspectedDuring = true
			break
		}
	}
	if !suspectedDuring {
		t.Fatal("disturbance produced no false suspicion; scenario too weak")
	}
	for i, nd := range c.nodes {
		if nd.IsSuspected(3) {
			t.Errorf("node %d still suspects p3 long after the disturbance; log:\n%s", i, c.log)
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	runTrace := func() string {
		c := newSimCluster(t, 99, 5, 2,
			netsim.Exponential{Min: time.Millisecond, Mean: 4 * time.Millisecond, Cap: 80 * time.Millisecond},
			2*time.Millisecond, 20*time.Millisecond)
		c.crashAt(2, time.Second)
		c.run(5 * time.Second)
		return c.log.String()
	}
	a, b := runTrace(), runTrace()
	if a != b {
		t.Errorf("same seed produced different traces:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

func TestClusterStopHaltsQuerying(t *testing.T) {
	c := newSimCluster(t, 5, 3, 1, netsim.Constant{D: time.Millisecond}, 0, 10*time.Millisecond)
	c.run(time.Second)
	rounds := c.nodes[0].rounds
	if rounds == 0 {
		t.Fatal("no rounds before Stop")
	}
	c.nodes[0].Stop()
	c.run(2 * time.Second)
	if got := c.nodes[0].rounds; got != rounds {
		t.Errorf("rounds advanced after Stop: %d -> %d", rounds, got)
	}
	// A stopped node keeps answering queries, so others do not suspect it.
	if c.nodes[1].IsSuspected(0) || c.nodes[2].IsSuspected(0) {
		t.Error("stopped (but alive) node became suspected")
	}
}

func TestNewNodeIdentityMismatch(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	env := net.AddNode(3, nodeHandlerProxy{new(*Node)})
	_, err := NewNode(env, NodeConfig{Detector: Config{Self: 0, N: 4, F: 1}})
	if err == nil {
		t.Error("NewNode with mismatched identity succeeded")
	}
}

func TestNewNodeBadDetectorConfig(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	env := net.AddNode(0, nodeHandlerProxy{new(*Node)})
	_, err := NewNode(env, NodeConfig{Detector: Config{Self: 0, N: 1, F: 0}})
	if err == nil {
		t.Error("NewNode with invalid detector config succeeded")
	}
}

func TestTwoProcessCluster(t *testing.T) {
	// n=2, f=1: quorum is 1 (own response only). Rounds close immediately;
	// the peer is suspected as soon as its response misses the window, and
	// restored via refutation when its query arrives. The protocol must not
	// deadlock in this degenerate configuration.
	c := newSimCluster(t, 13, 2, 1, netsim.Constant{D: 2 * time.Millisecond}, 5*time.Millisecond, 10*time.Millisecond)
	c.run(5 * time.Second)
	if c.nodes[0].rounds == 0 || c.nodes[1].rounds == 0 {
		t.Error("two-process cluster made no progress")
	}
}

// TestAllocsNodeRound locks the runtime's share of a round: at n=2, f=1 each
// process runs one round per 15 ms (its own response is the quorum), and a
// round allocates its query's box and the box of its response to the other's
// query. Its two pauses (end of round, next round) are Sets of one deadline
// slot: no handle, no closure.
func TestAllocsNodeRound(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	c := newSimCluster(t, 1, 2, 1, netsim.Constant{D: time.Millisecond}, 5*time.Millisecond, 10*time.Millisecond)
	c.run(time.Second)
	rounds := c.nodes[0].rounds + c.nodes[1].rounds
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { c.run(c.sim.Now() + 15*time.Millisecond) })
	// AllocsPerRun makes one more call than it measures.
	if got := c.nodes[0].rounds + c.nodes[1].rounds - rounds; got != 2*(runs+1) {
		t.Fatalf("%d rounds in %d periods of 15 ms, want two a period", got, runs+1)
	}
	if allocs != 4 {
		t.Errorf("two rounds: %v allocations, want 4", allocs)
	}
}

// TestNodeRebroadcastsUntilQuorum drives the rebroadcast slot. At n=3, f=0
// the quorum is all three, and a partition cuts p2 off, so p0's round cannot
// close. Only p0 runs rounds; p1 and p2 just answer. A query to p2 is handed
// to the network and dropped, so each of p0's broadcasts is three sends:
// two queries and p1's response.
func TestNodeRebroadcastsUntilQuorum(t *testing.T) {
	const every = 50 * time.Millisecond
	const rtt, window, interval = 2 * time.Millisecond, 5 * time.Millisecond, 100 * time.Millisecond
	c := buildSimCluster(t, 1, netsim.Constant{D: rtt / 2}, NodeConfig{
		Detector:    Config{N: 3, F: 0},
		Window:      window,
		Interval:    interval,
		Rebroadcast: every,
	})
	p0 := c.nodes[0]
	c.net.Partition([]ident.ID{0, 1}, []ident.ID{2})
	p0.Start()
	sent := func() int64 { return c.net.Stats().Sent }
	// check runs to at, between two of p0's broadcasts, when nothing is in
	// flight, and checks what was sent since the last check and what the
	// kernel holds: the node's set slots and nothing else.
	var last int64
	check := func(at time.Duration, wantSent int64, wantPending int) {
		t.Helper()
		c.run(at)
		if got := sent() - last; got != wantSent {
			t.Errorf("at %v: %d sends since the last check, want %d", at, got, wantSent)
		}
		last = sent()
		if got := c.sim.Pending(); got != wantPending {
			t.Errorf("at %v: %d pending in the kernel, want %d", at, got, wantPending)
		}
	}
	check(every/2, 3, 1)
	for k := 1; k <= 4; k++ {
		check(every/2+time.Duration(k)*every, 3, 1) // one rebroadcast a period
	}
	if p0.rounds != 0 {
		t.Fatalf("p0 ended %d rounds without its quorum", p0.rounds)
	}

	// A persisted restart abandons the open round and starts a new one,
	// which rebroadcasts on its own schedule: the old round's slot, due
	// every/2 from now, is gone.
	p0.Restart(false)
	check(c.sim.Now()+every/2, 3, 1)
	check(c.sim.Now()+every, 3, 1)

	// Stopped, p0 keeps no slot and sends nothing.
	p0.Stop()
	check(c.sim.Now(), 0, 0)
	check(c.sim.Now()+4*every, 0, 0)

	// Restarted after a Stop, it starts a round as well.
	restart := c.sim.Now()
	p0.Restart(false)
	check(restart+every/2, 3, 1)

	// Healed, the next rebroadcast reaches p2 and the round closes; from then
	// on every round meets its quorum at its responses, a round trip after
	// its query, so nothing is rebroadcast: a round is four sends, two
	// queries and two responses, and between rounds the kernel holds the
	// round slot alone.
	c.net.Heal()
	end := restart + every + rtt + window // the end of the restarted round
	for k := 0; k <= 5; k++ {
		check(end+interval/2+time.Duration(k)*(rtt+window+interval), 4, 1)
		if want := uint64(k + 1); p0.rounds != want {
			t.Fatalf("p0 ended %d rounds after the heal, want %d", p0.rounds, want)
		}
	}

	p0.Stop()
	check(c.sim.Now(), 0, 0)
}

func BenchmarkClusterSecond(b *testing.B) {
	// One simulated second of a 16-process cluster per iteration.
	for i := 0; i < b.N; i++ {
		sim := des.New(1)
		net := netsim.New(sim, netsim.Config{Delay: netsim.Uniform{Min: time.Millisecond, Max: 5 * time.Millisecond}})
		nodes := make([]*Node, 16)
		for j := 0; j < 16; j++ {
			id := ident.ID(j)
			var nd *Node
			env := net.AddNode(id, nodeHandlerProxy{&nd})
			n, err := NewNode(env, NodeConfig{
				Detector: Config{Self: id, N: 16, F: 5},
				Window:   5 * time.Millisecond,
				Interval: 100 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			nd = n
			nodes[j] = n
		}
		for _, n := range nodes {
			n.Start()
		}
		sim.RunUntil(time.Second)
	}
}

func TestNodeRestartFreshResetsAndConverges(t *testing.T) {
	c := newSimCluster(t, 5, 4, 1, netsim.Constant{D: time.Millisecond}, 5*time.Millisecond, 100*time.Millisecond)
	c.sim.At(2*time.Second, func() { c.net.Crash(3) })
	c.sim.RunUntil(5 * time.Second)
	if !c.nodes[0].IsSuspected(3) {
		t.Fatal("crash of p3 not detected")
	}
	c.sim.At(6*time.Second, func() {
		c.net.Recover(3)
		c.nodes[3].Restart(true)
	})
	c.sim.RunUntil(12 * time.Second)
	for i, nd := range c.nodes {
		if nd.IsSuspected(3) {
			t.Errorf("p%d still suspects the recovered p3", i)
		}
	}
	if n := c.nodes[3].Suspects().Len(); n != 0 {
		t.Errorf("fresh-restarted node kept %d suspicions", n)
	}
	if c.nodes[3].rounds == 0 {
		t.Error("restarted node never completed a round")
	}
}

func TestNodeRestartPersistedAbandonsInFlightRound(t *testing.T) {
	c := newSimCluster(t, 5, 4, 1, netsim.Constant{D: time.Millisecond}, 5*time.Millisecond, 100*time.Millisecond)
	// Crash p3 mid-run; its in-flight round (if any) must be abandoned on
	// the persisted restart without panicking BeginRound, and rounds resume.
	var before uint64
	c.sim.At(2*time.Second, func() { c.net.Crash(3) })
	c.sim.At(3*time.Second, func() { before = c.nodes[3].rounds })
	c.sim.At(4*time.Second, func() {
		c.net.Recover(3)
		c.nodes[3].Restart(false)
	})
	c.sim.RunUntil(10 * time.Second)
	if after := c.nodes[3].rounds; after <= before {
		t.Errorf("rounds did not advance after persisted restart: before=%d after=%d", before, after)
	}
	for i, nd := range c.nodes {
		if nd.IsSuspected(3) {
			t.Errorf("p%d still suspects the recovered p3", i)
		}
	}
}
