package chen

import (
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Self: 0, Interval: time.Second, Alpha: 100 * time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Self: ident.Nil, Interval: time.Second, Alpha: time.Second},
		{Self: 0, Interval: 0, Alpha: time.Second},
		{Self: 0, Interval: time.Second, Alpha: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

type cluster struct {
	sim   *des.Simulator
	net   *netsim.Network
	nodes []*Node
	log   *trace.Log
}

type proxy struct{ n **Node }

func (p proxy) Deliver(from ident.ID, payload any) {
	if *p.n != nil {
		(*p.n).Deliver(from, payload)
	}
}

func newCluster(t *testing.T, n int, delay netsim.DelayModel, interval, alpha time.Duration) *cluster {
	t.Helper()
	c := &cluster{sim: des.New(3), log: &trace.Log{}}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	peers := ident.FullSet(n)
	c.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		var nd *Node
		env := c.net.AddNode(id, proxy{&nd})
		var err error
		nd, err = NewNode(env, Config{Self: id, Peers: peers, Interval: interval, Alpha: alpha, Sink: c.log})
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

func TestNoFalseSuspicionsOnSchedule(t *testing.T) {
	c := newCluster(t, 4, netsim.Constant{D: 10 * time.Millisecond}, time.Second, 200*time.Millisecond)
	c.sim.RunUntil(30 * time.Second)
	if c.log.Len() != 0 {
		t.Errorf("suspicions on a punctual network:\n%s", c.log)
	}
}

func TestDetectsCrashNearExpectedArrival(t *testing.T) {
	const (
		interval = time.Second
		alpha    = 200 * time.Millisecond
		crashAt  = 10 * time.Second
	)
	c := newCluster(t, 3, netsim.Constant{D: 10 * time.Millisecond}, interval, alpha)
	c.sim.At(crashAt, func() { c.net.Crash(2) })
	c.sim.RunUntil(30 * time.Second)
	for i := 0; i < 2; i++ {
		at, ok := c.log.FirstSuspicion(ident.ID(i), 2)
		if !ok {
			t.Fatalf("node %d never suspected the crashed process", i)
		}
		// NFD-E detects at EA+α: within one interval + α + transit of the
		// crash.
		if at < crashAt || at > crashAt+interval+alpha+50*time.Millisecond {
			t.Errorf("node %d detection at %v, want ≈ crash + Δ + α", i, at)
		}
		if !c.nodes[i].IsSuspected(2) {
			t.Errorf("node %d suspicion not permanent", i)
		}
	}
}

func TestAdaptsToTransitDelay(t *testing.T) {
	// With a large constant transit delay, EA shifts and no suspicion
	// arises even though heartbeats arrive 500 ms "late" in absolute terms.
	c := newCluster(t, 2, netsim.Constant{D: 500 * time.Millisecond}, time.Second, 300*time.Millisecond)
	c.sim.RunUntil(30 * time.Second)
	if c.log.Len() != 0 {
		t.Errorf("failed to adapt to constant transit delay:\n%s", c.log)
	}
}

func TestRestoreAfterDisturbance(t *testing.T) {
	delay := netsim.Disturbance{
		Base:   netsim.Constant{D: 10 * time.Millisecond},
		Nodes:  ident.SetOf(1),
		Start:  10 * time.Second,
		End:    15 * time.Second,
		Factor: 500,
	}
	c := newCluster(t, 2, delay, time.Second, 200*time.Millisecond)
	c.sim.RunUntil(60 * time.Second)
	falseSusp := false
	for _, e := range c.log.Events() {
		if e.Subject == 1 && e.Suspected {
			falseSusp = true
		}
	}
	if !falseSusp {
		t.Fatal("disturbance did not trigger suspicion; scenario too weak")
	}
	if c.nodes[0].IsSuspected(1) {
		t.Error("suspicion not revoked after heartbeats resumed")
	}
}

func TestRestartNoFlappingAfterSenderDowntime(t *testing.T) {
	// p1's downtime shifts its seq/time relationship; the observers must
	// rebase their expected-arrival window on the first post-recovery
	// heartbeat instead of flapping once per heartbeat (the mixed-era EA
	// pathology).
	const (
		interval = time.Second
		alpha    = 300 * time.Millisecond
	)
	c := newCluster(t, 3, netsim.Constant{D: 10 * time.Millisecond}, interval, alpha)
	c.sim.At(5*time.Second, func() { c.net.Crash(1) })
	c.sim.At(15*time.Second, func() {
		c.net.Recover(1)
		c.nodes[1].Restart(true)
	})
	c.sim.RunUntil(40 * time.Second)
	if c.nodes[0].IsSuspected(1) {
		t.Fatal("recovered sender still suspected")
	}
	// Count p0's suspicion episodes about p1: exactly one (the downtime).
	episodes := 0
	for _, e := range c.log.Events() {
		if e.Observer == 0 && e.Subject == 1 && e.Suspected {
			episodes++
		}
	}
	if episodes != 1 {
		t.Errorf("p0 suspected p1 %d times, want exactly 1 (no post-recovery flapping)", episodes)
	}
}

func TestRestartFreshGracePeriod(t *testing.T) {
	// A fresh restart must not instantly suspect every peer: the bootstrap
	// window grants ≈ Δ + α of grace, within which live peers' heartbeats
	// arrive.
	const (
		interval = time.Second
		alpha    = 300 * time.Millisecond
	)
	c := newCluster(t, 3, netsim.Constant{D: 10 * time.Millisecond}, interval, alpha)
	c.sim.At(5*time.Second, func() { c.net.Crash(0) })
	c.sim.At(12*time.Second, func() {
		c.net.Recover(0)
		c.nodes[0].Restart(true)
	})
	c.sim.RunUntil(20 * time.Second)
	if n := c.nodes[0].Suspects().Len(); n != 0 {
		t.Errorf("fresh-restarted node suspects %d live peers", n)
	}
	for _, e := range c.log.Events() {
		if e.Observer == 0 && e.Suspected && e.At >= 12*time.Second {
			t.Errorf("fresh-restarted node falsely suspected %v at %v", e.Subject, e.At)
		}
	}
}

func TestRestartKeepsSequenceMonotonic(t *testing.T) {
	// The heartbeat sequence counter survives a fresh restart (it acts as an
	// incarnation number); otherwise peers would discard the restarted
	// sender's heartbeats as stale forever.
	c := newCluster(t, 2, netsim.Constant{D: 10 * time.Millisecond}, time.Second, 300*time.Millisecond)
	c.sim.At(5*time.Second, func() { c.net.Crash(1) })
	c.sim.RunUntil(10 * time.Second)
	if !c.nodes[0].IsSuspected(1) {
		t.Fatal("crash not detected")
	}
	c.sim.At(11*time.Second, func() {
		c.net.Recover(1)
		c.nodes[1].Restart(true)
	})
	c.sim.RunUntil(15 * time.Second)
	if c.nodes[0].IsSuspected(1) {
		t.Error("restarted sender never re-trusted: its heartbeats were discarded as stale")
	}
}
