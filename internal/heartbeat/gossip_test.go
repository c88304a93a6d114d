package heartbeat

import (
	"slices"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/trace"
)

// gossiper is what a gossip script drives: GossipNode or the reference.
type gossiper interface {
	node.Handler
	Start()
	Restart(fresh bool)
	Stop()
	Suspects() ident.Set
}

// gossipScript is a decoded fuzz input: a network of gossip nodes and the
// faults to put it through.
type gossipScript struct {
	n                 int
	interval, timeout time.Duration
	delay             netsim.DelayModel
	neighbors         []ident.Set
	start             []time.Duration
	ops               []byte
}

// parseGossipScript reads four header bytes — the size and shape of the
// graph, the delay model, Θ, the start phases and the circulant's span — and
// takes the rest as two-byte operations.
func parseGossipScript(data []byte) (gossipScript, bool) {
	if len(data) < 4 {
		return gossipScript{}, false
	}
	const interval = 100 * time.Millisecond
	s := gossipScript{n: 3 + int(data[0]%6), interval: interval, ops: data[4:]}
	if len(s.ops) > 128 {
		s.ops = s.ops[:128]
	}
	// Θ is a multiple of Δ/4 (Δ/4 to 8Δ), so sightings at tick instants
	// land exactly on it.
	s.timeout = interval / 4 * time.Duration(1+data[2]%32)

	param := time.Duration(data[1] >> 2)
	switch data[1] % 4 {
	case 0: // zero delay: every gossip lands at its own tick instant
		s.delay = netsim.Constant{}
	case 1: // exactly Δ: every gossip lands on its receiver's tick
		s.delay = netsim.Constant{D: interval}
	case 2:
		s.delay = netsim.Constant{D: interval * param / 16}
	case 3:
		s.delay = netsim.Exponential{Mean: interval * (1 + param) / 16}
	}

	// A line, a ring or a circulant whose every process reaches the k
	// nearest on each side.
	k := 1
	shape := (data[0] / 6) % 3
	if shape == 2 {
		k = 1 + int(data[3]>>1)%(s.n/2)
	}
	s.neighbors = make([]ident.Set, s.n)
	for i := range s.n {
		for d := 1; d <= k; d++ {
			for _, j := range []int{i - d, i + d} {
				if shape == 0 && (j < 0 || j >= s.n) {
					continue
				}
				s.neighbors[i].Add(ident.ID((j + s.n) % s.n))
			}
		}
	}

	// Every node starts at 0, as in X1/X2, or at its own phase within Δ.
	s.start = make([]time.Duration, s.n)
	if data[3]&1 != 0 {
		for i := range s.start {
			s.start[i] = interval * time.Duration((i*int(data[3]))%16) / 16
		}
	}
	return s, true
}

// gossipRig is one run of a script: n gossip nodes of one implementation on
// their own kernel and network.
type gossipRig struct {
	s     gossipScript
	sim   *des.Simulator
	net   *netsim.Network
	log   *trace.Log
	nodes []gossiper
}

func newGossipRig(s gossipScript, build func(env node.Env, sink fd.SuspicionSink) gossiper) *gossipRig {
	r := &gossipRig{s: s, sim: des.New(1), log: &trace.Log{}, nodes: make([]gossiper, s.n)}
	r.net = netsim.New(r.sim, netsim.Config{Delay: s.delay})
	for i := range r.nodes {
		env := r.net.AddNode(ident.ID(i), node.HandlerFunc(func(from ident.ID, payload any) {
			r.nodes[i].Deliver(from, payload)
		}))
		r.nodes[i] = build(env, r.log)
		r.net.SetNeighbors(ident.ID(i), s.neighbors[i])
	}
	for i, nd := range r.nodes {
		r.sim.At(s.start[i], nd.Start)
	}
	r.sim.RunUntil(slices.Max(s.start))
	return r
}

// apply runs one operation.
func (r *gossipRig) apply(op, arg byte) {
	s := r.s
	id := ident.ID(int(arg) % s.n)
	switch op % 8 {
	case 0, 1: // time passes: up to 8Δ
		r.sim.RunUntil(r.sim.Now() + s.interval*time.Duration(arg)/32)
	case 2:
		r.net.Crash(id)
	case 3: // crash-recovery, or a reboot of a running node: fresh or persisted
		r.net.Recover(id)
		r.nodes[id].Restart(arg&0x80 != 0)
	case 4: // the processes whose bit is set in arg on one island
		var island, rest []ident.ID
		for i := range s.n {
			if arg&(1<<i) != 0 {
				island = append(island, ident.ID(i))
			} else {
				rest = append(rest, ident.ID(i))
			}
		}
		r.net.Partition(island, rest)
	case 5:
		r.net.Heal()
	case 6:
		r.nodes[id].Stop()
	case 7:
		r.detour(id, s.interval*time.Duration(arg)/16)
	}
}

// detour checkpoints every layer, runs on for d with one node rebooted fresh
// and the next one stopped, and rolls everything back: what follows must be
// as if it never happened. A node without a checkpoint (the reference) skips
// it.
func (r *gossipRig) detour(id ident.ID, d time.Duration) {
	snaps := make([]any, len(r.nodes))
	for i, nd := range r.nodes {
		c, ok := nd.(node.Cloneable)
		if !ok {
			return
		}
		snaps[i] = c.Snapshot()
	}
	sim, net, mark := r.sim.Snapshot(), r.net.Snapshot(), r.log.Mark()
	r.nodes[id].Restart(true)
	r.nodes[(int(id)+1)%r.s.n].Stop()
	r.sim.RunUntil(r.sim.Now() + d)
	r.sim.Restore(sim)
	r.net.Restore(net)
	r.log.TruncateTo(mark)
	for i, nd := range r.nodes {
		nd.(node.Cloneable).Restore(snaps[i])
	}
}

// runGossipScript runs data on GossipNode and on the reference side by side,
// then lets both settle for Θ + 2Δ, and requires the same suspicion log and
// the same final Suspects at every node.
func runGossipScript(t *testing.T, data []byte) {
	s, ok := parseGossipScript(data)
	if !ok {
		return
	}
	got := newGossipRig(s, func(env node.Env, sink fd.SuspicionSink) gossiper {
		g, err := NewGossipNode(env, Config{Self: env.Self(), Peers: ident.FullSet(s.n), Interval: s.interval, Timeout: s.timeout, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
	want := newGossipRig(s, func(env node.Env, sink fd.SuspicionSink) gossiper {
		return newRefGossipNode(env, s.n, s.interval, s.timeout, sink)
	})
	for ops := s.ops; len(ops) >= 2; ops = ops[2:] {
		got.apply(ops[0], ops[1])
		want.apply(ops[0], ops[1])
	}
	end := got.sim.Now() + s.timeout + 2*s.interval
	got.sim.RunUntil(end)
	want.sim.RunUntil(end)

	ge, we := got.log.Events(), want.log.Events()
	for i := range min(len(ge), len(we)) {
		if ge[i] != we[i] {
			t.Fatalf("suspicion log differs at event %d of %d/%d: %+v, reference %+v", i, len(ge), len(we), ge[i], we[i])
		}
	}
	if len(ge) != len(we) {
		t.Fatalf("suspicion log has %d events, reference %d", len(ge), len(we))
	}
	for i := range s.n {
		if g, w := got.nodes[i].Suspects(), want.nodes[i].Suspects(); !g.Equal(w) {
			t.Fatalf("p%d suspects %v at the end, reference %v", i, g, w)
		}
	}
}

// FuzzGossipMatchesReference drives random lines, rings and circulants,
// under zero, Δ, other constant and exponential delays, through crashes,
// fresh and persisted recoveries, partitions and heals, stops and
// checkpoint round trips, on GossipNode and on the node it replaced
// (reference_test.go), and requires identical suspicion logs and final
// suspect sets. The committed corpus (testdata/fuzz/FuzzGossipMatchesReference)
// is replayed by plain go test.
func FuzzGossipMatchesReference(f *testing.F) {
	f.Fuzz(runGossipScript)
}

// TestAllocsGossipInterval counts the heap allocations of one heartbeat
// interval of 14 gossip nodes on a circulant of degree 6 under exponential
// delays, against the node GossipNode replaced (reference_test.go) on the
// same network: a node's tick allocates the heartbeat's box, the vector's
// copy and the vector message's box, and its poll and tick re-arm slots of
// its deadline table, which allocate nothing, where the replaced node's two
// timers allocated a handle each.
func TestAllocsGossipInterval(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const n = 14
	s := gossipScript{n: n, interval: 100 * time.Millisecond, timeout: 400 * time.Millisecond,
		delay: netsim.Exponential{Mean: 20 * time.Millisecond}, neighbors: make([]ident.Set, n), start: make([]time.Duration, n)}
	for i := range n {
		for d := 1; d <= 3; d++ {
			s.neighbors[i].Add(ident.ID((i + d) % n))
			s.neighbors[i].Add(ident.ID((i - d + n) % n))
		}
	}
	interval := func(r *gossipRig) float64 {
		for range 20 {
			r.sim.RunUntil(r.sim.Now() + s.interval)
		}
		return testing.AllocsPerRun(50, func() { r.sim.RunUntil(r.sim.Now() + s.interval) })
	}
	got := interval(newGossipRig(s, func(env node.Env, sink fd.SuspicionSink) gossiper {
		g, err := NewGossipNode(env, Config{Self: env.Self(), Peers: ident.FullSet(n), Interval: s.interval, Timeout: s.timeout, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}))
	want := interval(newGossipRig(s, func(env node.Env, sink fd.SuspicionSink) gossiper {
		return newRefGossipNode(env, n, s.interval, s.timeout, sink)
	}))
	t.Logf("one interval of %d nodes: GossipNode %v allocations, the node it replaced %v", n, got, want)
	if got != 3*n || got > want {
		t.Errorf("one interval of %d nodes: %v allocations, want %d, and at most the replaced node's %v", n, got, 3*n, want)
	}
}
