package phiaccrual

import (
	"math"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Self: 0, Interval: time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Self: ident.Nil, Interval: time.Second},
		{Self: 0, Interval: 0},
		{Self: 0, Interval: time.Second, Threshold: -1},
		// A NaN or infinite threshold is never reached: each switched
		// detection off without saying so.
		{Self: 0, Interval: time.Second, Threshold: math.NaN()},
		{Self: 0, Interval: time.Second, Threshold: math.Inf(1)},
		{Self: 0, Interval: time.Second, Threshold: math.Inf(-1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := EstimatorConfig{Interval: time.Second}
	c.fillDefaults()
	if c.Threshold != 8 || c.WindowSize != 200 {
		t.Errorf("defaults = %+v", c)
	}
	if c.MinStdDev != 50*time.Millisecond {
		t.Errorf("MinStdDev default = %v, want Interval/20", c.MinStdDev)
	}
}

func TestWindowStats(t *testing.T) {
	var w window
	for _, v := range []time.Duration{1, 2, 3} {
		w.push(v*time.Second, 10)
	}
	mean, std := w.meanStd()
	if mean != 2 {
		t.Errorf("mean = %v, want 2", mean)
	}
	if math.Abs(std-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Errorf("std = %v", std)
	}
	// Ring behavior: capacity 3, pushing a 4th evicts the oldest.
	w.push(10*time.Second, 3)
	mean, _ = w.meanStd()
	if mean != 5 {
		t.Errorf("mean after eviction = %v, want (2+3+10)/3", mean)
	}
	var empty window
	if m, s := empty.meanStd(); m != 0 || s != 0 {
		t.Error("empty window stats nonzero")
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

func newCluster(t *testing.T, n int, delay netsim.DelayModel, interval time.Duration) *cluster {
	t.Helper()
	c := &cluster{sim: des.New(5), log: &trace.Log{}}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	peers := ident.FullSet(n)
	c.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		var nd *Node
		env := c.net.AddNode(id, proxy{&nd})
		var err error
		nd, err = NewNode(env, Config{Self: id, Peers: peers, Interval: interval, Sink: c.log})
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

func TestPhiLowOnRegularTraffic(t *testing.T) {
	c := newCluster(t, 3, netsim.Constant{D: 5 * time.Millisecond}, time.Second)
	c.sim.RunUntil(30 * time.Second)
	if c.log.Len() != 0 {
		t.Errorf("suspicions on regular traffic:\n%s", c.log)
	}
	phi := c.nodes[0].Phi(1)
	if phi >= 1 {
		t.Errorf("φ = %v on regular traffic, want < 1", phi)
	}
}

func TestPhiGrowsWithSilenceAndDetectsCrash(t *testing.T) {
	c := newCluster(t, 3, netsim.Constant{D: 5 * time.Millisecond}, time.Second)
	c.sim.At(10*time.Second, func() { c.net.Crash(2) })
	c.sim.RunUntil(60 * time.Second)
	for i := 0; i < 2; i++ {
		if !c.nodes[i].IsSuspected(2) {
			t.Errorf("node %d: crashed process not suspected (φ=%v)", i, c.nodes[i].Phi(2))
		}
		at, ok := c.log.FirstSuspicion(ident.ID(i), 2)
		if !ok || at < 10*time.Second {
			t.Errorf("node %d suspicion at %v, ok=%v", i, at, ok)
		}
	}
	if phi := c.nodes[0].Phi(2); !math.IsInf(phi, 1) && phi < 8 {
		t.Errorf("φ after long silence = %v, want ≥ threshold", phi)
	}
}

func TestPhiRestoresAfterDisturbance(t *testing.T) {
	delay := netsim.Disturbance{
		Base:   netsim.Constant{D: 5 * time.Millisecond},
		Nodes:  ident.SetOf(1),
		Start:  10 * time.Second,
		End:    18 * time.Second,
		Factor: 2000, // ≈10 s delays, far beyond the adaptive expectation
	}
	c := newCluster(t, 3, delay, time.Second)
	c.sim.RunUntil(120 * time.Second)
	falseSusp := false
	for _, e := range c.log.Events() {
		if e.Subject == 1 && e.Suspected {
			falseSusp = true
		}
	}
	if !falseSusp {
		t.Fatal("disturbance did not trigger φ suspicion; scenario too weak")
	}
	if c.nodes[0].IsSuspected(1) || c.nodes[2].IsSuspected(1) {
		t.Error("suspicion not revoked after heartbeats resumed")
	}
}

func TestPhiOfUnknownPeerZero(t *testing.T) {
	c := newCluster(t, 2, netsim.Constant{D: time.Millisecond}, time.Second)
	if got := c.nodes[0].Phi(9); got != 0 {
		t.Errorf("Phi(unknown) = %v, want 0", got)
	}
	if c.nodes[0].IsSuspected(9) {
		t.Error("unknown peer suspected")
	}
}

func TestRestartAndRedetectionUnpoisonedWindow(t *testing.T) {
	// The downtime gap must not enter the observers' inter-arrival windows:
	// after p1 recovers and crashes again, detection of the second crash
	// must be about as fast as the first, not stretched by a 10s outlier
	// sample.
	c := newCluster(t, 3, netsim.Constant{D: 10 * time.Millisecond}, time.Second)
	c.sim.At(5*time.Second, func() { c.net.Crash(1) })
	c.sim.At(15*time.Second, func() {
		c.net.Recover(1)
		c.nodes[1].Restart(true)
	})
	c.sim.At(25*time.Second, func() { c.net.Crash(1) })
	c.sim.RunUntil(45 * time.Second)
	if !c.nodes[0].IsSuspected(1) {
		t.Fatal("second crash never detected")
	}
	var redetect time.Duration
	for _, e := range c.log.Events() {
		if e.Observer == 0 && e.Subject == 1 && e.Suspected && e.At >= 25*time.Second {
			redetect = e.At - 25*time.Second
			break
		}
	}
	if redetect == 0 {
		t.Fatal("no re-detection event found")
	}
	if redetect > 10*time.Second {
		t.Errorf("re-detection took %v; the downtime gap poisoned the window", redetect)
	}
}

// TestPollInterval: suspicion is raised by the poll, so it falls on a
// multiple of a quarter of the heartbeat interval, here between two whole
// intervals.
func TestPollInterval(t *testing.T) {
	const poll = 250 * time.Millisecond
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	log := &trace.Log{}
	var nd *Node
	env := net.AddNode(0, proxy{&nd})
	nd, err := NewNode(env, Config{Self: 0, Peers: ident.SetOf(1), Interval: time.Second, Sink: log})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	sim.RunUntil(time.Minute)
	at, ok := log.FirstSuspicion(0, 1)
	if !ok || at%poll != 0 || at%time.Second == 0 {
		t.Errorf("silent peer suspected at %v (ok=%v), want a multiple of %v between whole seconds", at, ok, poll)
	}
}
