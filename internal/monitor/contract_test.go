package monitor_test

import (
	"testing"
	"time"

	"asyncfd/internal/chen"
	"asyncfd/internal/des"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/monitor"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/phiaccrual"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/trace"
)

// The contract of the shared runtime, held over every kind that runs on it.
// What a kind's rule decides (when a silent peer is suspected, what a
// restart does to the estimate) is tested in the kind's own package.

const interval = time.Second

// detector is everything the experiment engine asks of a node.
type detector interface {
	node.Handler
	node.Cloneable
	fd.Detector
	fd.Restartable
	Start()
	Stop()
}

type kind struct {
	name string
	// new builds a node; every kind keeps its default sample window.
	new func(env node.Env, self ident.ID, peers ident.Set, sink fd.SuspicionSink) (detector, error)
	// armed is how many timeouts a monitor that was never started keeps
	// pending for one punctual peer: the deadline, or none if polled.
	armed int
	// fill is how many samples the node's window holds: none for the fixed
	// timeout, 200 for φ, 100 for NFD-E.
	fill int
}

var kinds = []kind{
	{"heartbeat", func(env node.Env, self ident.ID, peers ident.Set, sink fd.SuspicionSink) (detector, error) {
		return heartbeat.NewNode(env, heartbeat.Config{Self: self, Peers: peers, Interval: interval, Timeout: 2 * interval, Sink: sink})
	}, 1, 0},
	{"phi-accrual", func(env node.Env, self ident.ID, peers ident.Set, sink fd.SuspicionSink) (detector, error) {
		return phiaccrual.NewNode(env, phiaccrual.Config{Self: self, Peers: peers, Interval: interval, Sink: sink})
	}, 0, 200},
	{"chen-nfde", func(env node.Env, self ident.ID, peers ident.Set, sink fd.SuspicionSink) (detector, error) {
		return chen.NewNode(env, chen.Config{Self: self, Peers: peers, Interval: interval, Alpha: 300 * time.Millisecond, Sink: sink})
	}, 1, 100},
}

func forEachKind(t *testing.T, fn func(t *testing.T, k kind)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k) })
	}
}

type cluster struct {
	sim   *des.Simulator
	net   *netsim.Network
	nodes []detector
	log   *trace.Log
}

// newNet is a cluster with nobody on it yet.
func newNet(delay netsim.DelayModel) *cluster {
	c := &cluster{sim: des.New(1), log: &trace.Log{}}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	return c
}

// newCluster builds n processes of one kind, each monitoring all the others,
// and starts them in id order.
func newCluster(t testing.TB, k kind, n int, delay netsim.DelayModel) *cluster {
	t.Helper()
	c := newNet(delay)
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, c.add(t, k, ident.ID(i), ident.FullSet(n)))
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c
}

// add puts one process on the network without starting it.
func (c *cluster) add(t testing.TB, k kind, id ident.ID, peers ident.Set) detector {
	t.Helper()
	var nd detector
	env := c.net.AddNode(id, node.HandlerFunc(func(from ident.ID, payload any) { nd.Deliver(from, payload) }))
	nd, err := k.new(env, id, peers, c.log)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// by returns what observer recorded at or after since.
func (c *cluster) by(observer ident.ID, since time.Duration) []trace.Event {
	var out []trace.Event
	for _, e := range c.log.Events() {
		if e.Observer == observer && e.At >= since {
			out = append(out, e)
		}
	}
	return out
}

func TestStopSilencesSenderAndMonitor(t *testing.T) {
	forEachKind(t, func(t *testing.T, k kind) {
		c := newCluster(t, k, 3, netsim.Constant{D: time.Millisecond})
		c.sim.RunUntil(5500 * time.Millisecond)
		c.nodes[0].Stop()
		before := c.net.Stats().Sent
		c.sim.RunUntil(6500 * time.Millisecond) // one beat of every running node
		if got := c.net.Stats().Sent - before; got != 2*2 {
			t.Errorf("%d messages sent in one interval, want 4: two senders, two receivers each", got)
		}
		c.net.Crash(1)
		c.net.Crash(2)
		c.sim.RunUntil(time.Minute)
		if got := c.by(0, 0); len(got) != 0 || c.nodes[0].Suspects().Len() != 0 {
			t.Errorf("stopped monitor went on judging: events %v, suspects %v", got, c.nodes[0].Suspects())
		}
	})
}

func TestForeignPayloadsAndStrangersIgnored(t *testing.T) {
	forEachKind(t, func(t *testing.T, k kind) {
		c := newNet(netsim.Constant{})
		nd := c.add(t, k, 0, ident.SetOf(0, 1))
		stranger := c.net.AddNode(9, node.HandlerFunc(func(ident.ID, any) {}))
		nd.Start()
		stranger.Send(0, monitor.Message{From: 9, Seq: 1})
		stranger.Send(0, "garbage")
		nd.Deliver(1, 42)
		c.sim.RunUntil(500 * time.Millisecond)
		if c.log.Len() != 0 {
			t.Errorf("junk moved the oracle:\n%s", c.log)
		}
		// Neither a stranger nor the monitor itself is ever judged: only
		// the silent peer 1 times out.
		c.sim.RunUntil(time.Minute)
		if got := nd.Suspects(); !got.Equal(ident.SetOf(1)) || nd.IsSuspected(9) {
			t.Errorf("suspects %v, want {1}", got)
		}
	})
}

func TestRestartRestores(t *testing.T) {
	const restartAt = 11 * time.Second
	forEachKind(t, func(t *testing.T, k kind) {
		for _, fresh := range []bool{true, false} {
			c := newCluster(t, k, 4, netsim.Constant{D: time.Millisecond})
			c.sim.At(2*time.Second, func() { c.net.Crash(2); c.net.Crash(1) })
			c.sim.At(restartAt, func() {
				c.net.Crash(0)
				c.net.Recover(0)
				c.nodes[0].Restart(fresh)
			})
			c.sim.RunUntil(restartAt - 1)
			if got := c.nodes[0].Suspects(); !got.Equal(ident.SetOf(1, 2)) {
				t.Fatalf("before the restart p0 suspects %v, want {1,2}", got)
			}
			c.sim.RunUntil(restartAt)
			var restores []ident.ID
			for _, e := range c.by(0, restartAt) {
				if !e.Suspected {
					restores = append(restores, e.Subject)
				}
			}
			if fresh {
				// The reboot lost the suspicions; the trace must say so,
				// in ascending id (the events share a timestamp).
				if len(restores) != 2 || restores[0] != 1 || restores[1] != 2 || c.nodes[0].Suspects().Len() != 0 {
					t.Errorf("fresh restart restored %v and suspects %v, want [1 2] and nobody", restores, c.nodes[0].Suspects())
				}
			} else if len(restores) != 0 || !c.nodes[0].IsSuspected(1) || !c.nodes[0].IsSuspected(2) {
				t.Errorf("persisted restart restored %v and suspects %v, want nothing restored and {1,2} kept", restores, c.nodes[0].Suspects())
			}
			// Either way the monitor is running again: it beats, and the
			// dead stay (or are again) suspected while the living p3 is not.
			sent := c.net.Stats().Sent
			c.sim.RunUntil(time.Minute)
			if got := c.nodes[0].Suspects(); !got.Equal(ident.SetOf(1, 2)) {
				t.Errorf("long after the restart p0 suspects %v, want {1,2}", got)
			}
			if c.net.Stats().Sent == sent || c.nodes[3].IsSuspected(0) {
				t.Error("restarted node is not heartbeating")
			}
		}
	})
}

// TestSnapshotRestoreReplays: a checkpoint taken mid-run and restored in
// place replays the same future, as often as it is restored — with the
// kernel's and the network's, it is what a warm fork is made of.
func TestSnapshotRestoreReplays(t *testing.T) {
	forEachKind(t, func(t *testing.T, k kind) {
		c := newCluster(t, k, 4, netsim.Exponential{Min: time.Millisecond, Mean: 300 * time.Millisecond})
		c.sim.RunUntil(5 * time.Second)
		simSnap, netSnap, mark := c.sim.Snapshot(), c.net.Snapshot(), c.log.Mark()
		nodeSnaps := make([]any, len(c.nodes))
		for i, nd := range c.nodes {
			nodeSnaps[i] = nd.Snapshot()
		}
		future := func() string {
			c.sim.At(6*time.Second, func() { c.net.Crash(3) })
			c.sim.At(20*time.Second, func() {
				c.net.Recover(3)
				c.nodes[3].Restart(true)
			})
			c.sim.RunUntil(40 * time.Second)
			return c.log.String()
		}
		want := future()
		if c.log.Len() == mark {
			t.Fatal("nothing happened after the checkpoint; scenario too weak")
		}
		for round := 1; round <= 2; round++ {
			c.sim.Restore(simSnap)
			c.net.Restore(netSnap)
			for i, nd := range c.nodes {
				nd.Restore(nodeSnaps[i])
			}
			c.log.TruncateTo(mark)
			if got := future(); got != want {
				t.Fatalf("replay %d diverged:\n%s\nwant:\n%s", round, got, want)
			}
		}
	})
}

// TestRestoreBetweenSightingAndSuspicion: what a rule keeps between a
// sighting and the suspicion that follows it (a deadline; φ's horizon and the
// sums it is made of) is part of the checkpoint. A cluster checkpointed after
// a crashed peer's last heartbeat, run on until the suspicion has long been
// raised, and restored — and again between the monitor's own persisted
// Restart and its next poll, where the restart was the sighting — must trace
// what a twin that was never restored traces.
func TestRestoreBetweenSightingAndSuspicion(t *testing.T) {
	const (
		crash2    = 5500 * time.Millisecond  // p2's last heartbeat left at 5 s
		crash1    = 11500 * time.Millisecond // p1's at 11 s
		restartAt = 12010 * time.Millisecond // p0 resumes: a sighting of p1 by fiat
		horizon   = 30 * time.Second
	)
	forEachKind(t, func(t *testing.T, k kind) {
		run := func(checkpoints ...time.Duration) *cluster {
			c := newCluster(t, k, 3, netsim.Constant{D: time.Millisecond})
			c.sim.At(crash2, func() { c.net.Crash(2) })
			c.sim.At(crash1, func() { c.net.Crash(1) })
			c.sim.At(restartAt, func() {
				c.net.Crash(0)
				c.net.Recover(0)
				c.nodes[0].Restart(false)
			})
			for _, at := range checkpoints {
				c.sim.RunUntil(at)
				simSnap, netSnap, mark := c.sim.Snapshot(), c.net.Snapshot(), c.log.Mark()
				nodeSnaps := make([]any, len(c.nodes))
				for i, nd := range c.nodes {
					nodeSnaps[i] = nd.Snapshot()
				}
				c.sim.RunUntil(horizon)
				if c.log.Len() == mark {
					t.Fatalf("nothing happened after the checkpoint at %v; scenario too weak", at)
				}
				c.sim.Restore(simSnap)
				c.net.Restore(netSnap)
				for i, nd := range c.nodes {
					nd.Restore(nodeSnaps[i])
				}
				c.log.TruncateTo(mark)
			}
			c.sim.RunUntil(horizon)
			return c
		}
		twin := run()
		if _, ok := twin.log.FirstSuspicion(0, 2); !ok || len(twin.by(0, restartAt)) == 0 {
			t.Fatalf("p0 must suspect p2 before its restart and trace something after it:\n%s", twin.log)
		}
		first, _ := twin.log.FirstSuspicion(0, 2)
		if first <= crash2+100*time.Millisecond {
			t.Fatalf("p0 suspects p2 at %v, before the first checkpoint", first)
		}
		if got, want := run(crash2+100*time.Millisecond, restartAt+100*time.Millisecond).log.String(), twin.log.String(); got != want {
			t.Errorf("restored run diverged:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestBootstrapDeadlinesFireInIDOrder: peers that never speak run out of
// grace at the same instant, and the trace lists them by id, not by the
// order of a map or of the set literal.
func TestBootstrapDeadlinesFireInIDOrder(t *testing.T) {
	forEachKind(t, func(t *testing.T, k kind) {
		c := newNet(netsim.Constant{})
		c.add(t, k, 0, ident.SetOf(7, 3, 0, 5)).Start()
		c.sim.RunUntil(time.Minute)
		got := c.log.Events()
		if len(got) != 3 {
			t.Fatalf("events:\n%s\nwant one suspicion per silent peer", c.log)
		}
		for i, want := range []ident.ID{3, 5, 7} {
			if e := got[i]; e.Subject != want || !e.Suspected || e.At != got[0].At {
				t.Errorf("event %d = %v, want a suspicion of %v at %v", i, e, want, got[0].At)
			}
		}
	})
}

// TestAllocsHeartbeatDelivery locks the detector step on the simulator: a
// punctual heartbeat from a trusted peer, taken into a full window, pushes
// the peer's slot of the node's deadline table back, so a delivery allocates
// nothing — no sample storage, no timer handle, no callback — and arms
// nothing: the kernel's pending count stays the slot it was.
func TestAllocsHeartbeatDelivery(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	forEachKind(t, func(t *testing.T, k kind) {
		c := newNet(netsim.Constant{})
		nd := c.add(t, k, 0, ident.SetOf(0, 1)) // not started: no beat, no poll
		// Fill the window and arm the deadline.
		warm := max(16, k.fill)
		// Boxed ahead of time: the payload is the sender's allocation.
		// AllocsPerRun makes one more call than it measures.
		hbs := make([]any, warm+1+100)
		for i := range hbs {
			hbs[i] = monitor.Message{From: 1, Seq: uint64(i + 1)}
		}
		next := 0
		beat := func() {
			c.sim.RunUntil(c.sim.Now() + interval)
			nd.Deliver(1, hbs[next])
			next++
		}
		for i := 0; i < warm; i++ {
			beat()
		}
		pending := c.sim.Pending()
		if allocs := testing.AllocsPerRun(100, beat); allocs != 0 {
			t.Errorf("a heartbeat from a trusted peer: %v allocations, want 0", allocs)
		}
		if nd.IsSuspected(1) || c.sim.Pending() != pending || pending != k.armed {
			t.Errorf("suspected %v, %d then %d pending: want the peer trusted and %d throughout", nd.IsSuspected(1), pending, c.sim.Pending(), k.armed)
		}
	})
}

// TestAllocsTickAndPoll locks the monitor's own timeouts: over one heartbeat
// interval a tick allocates the heartbeat's box and nothing else, and each of
// φ's four polls (Δ/4 apart) nothing: the beat and the poll are two more
// slots of the node's deadline table, whose callback is bound once, at
// construction.
func TestAllocsTickAndPoll(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	forEachKind(t, func(t *testing.T, k kind) {
		c := newNet(netsim.Constant{})
		nd := c.add(t, k, 0, ident.SetOf(0, 1))
		nd.Start()
		hbs := make([]any, k.fill+16+101)
		for i := range hbs {
			hbs[i] = monitor.Message{From: 1, Seq: uint64(i + 1)}
		}
		next := 0
		// One interval: one tick, the polls of a polled kind, and a
		// heartbeat that keeps the peer trusted (which allocates nothing:
		// TestAllocsHeartbeatDelivery).
		interval1 := func() {
			c.sim.RunUntil(c.sim.Now() + interval)
			nd.Deliver(1, hbs[next])
			next++
		}
		for i := 0; i < k.fill+16; i++ {
			interval1()
		}
		polls := 0
		if k.armed == 0 {
			polls = 4
		}
		if allocs := testing.AllocsPerRun(100, interval1); allocs != 1 {
			t.Errorf("one interval, one tick and %d polls: %v allocations, want 1", polls, allocs)
		}
		if nd.IsSuspected(1) {
			t.Error("the punctual peer is suspected")
		}
	})
}
