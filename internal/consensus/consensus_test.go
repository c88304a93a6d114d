package consensus

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/des"
	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/raceflag"
)

// fakeFD is a settable failure detector for unit tests.
type fakeFD struct {
	mu  sync.Mutex
	set ident.Set
}

func (f *fakeFD) Suspects() ident.Set {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set.Clone()
}

func (f *fakeFD) IsSuspected(id ident.ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set.Has(id)
}

func (f *fakeFD) suspect(id ident.ID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.set.Add(id)
}

var _ fd.Detector = (*fakeFD)(nil)

func TestConfigValidate(t *testing.T) {
	det := &fakeFD{}
	good := Config{Self: 0, N: 3, F: 1, Detector: det}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Self: ident.Nil, N: 3, F: 1, Detector: det},
		{Self: 5, N: 3, F: 1, Detector: det},
		{Self: 0, N: 1, F: 0, Detector: det},
		{Self: 0, N: 3, F: 2, Detector: det}, // no correct majority
		{Self: 0, N: 3, F: 1},                // no detector
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// consensusCluster builds n consensus nodes over a simulated network with a
// perfect crash-aware detector (suspects exactly the crashed processes after
// detectionLag).
type consensusCluster struct {
	sim       *des.Simulator
	net       *netsim.Network
	nodes     []*Node
	fds       []*fakeFD
	decisions map[ident.ID]Value
	decidedAt map[ident.ID]time.Duration
}

type proxy struct{ n **Node }

func (p proxy) Deliver(from ident.ID, payload any) {
	if *p.n != nil {
		(*p.n).Deliver(from, payload)
	}
}

func newConsensusCluster(t *testing.T, seed int64, n, f int, delay netsim.DelayModel) *consensusCluster {
	t.Helper()
	c := &consensusCluster{
		sim:       des.New(seed),
		decisions: make(map[ident.ID]Value),
		decidedAt: make(map[ident.ID]time.Duration),
	}
	c.net = netsim.New(c.sim, netsim.Config{Delay: delay})
	c.nodes = make([]*Node, n)
	c.fds = make([]*fakeFD, n)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		c.fds[i] = &fakeFD{}
		var nd *Node
		env := c.net.AddNode(id, proxy{&nd})
		var err error
		nd, err = NewNode(env, Config{
			Self:     id,
			N:        n,
			F:        f,
			Detector: c.fds[i],
			OnDecide: func(v Value) {
				c.decisions[id] = v
				c.decidedAt[id] = c.sim.Now()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = nd
	}
	return c
}

// crash kills id at time at and makes every detector suspect it lag later.
func (c *consensusCluster) crash(id ident.ID, at, lag time.Duration) {
	c.sim.At(at, func() { c.net.Crash(id) })
	c.sim.At(at+lag, func() {
		for _, f := range c.fds {
			f.suspect(id)
		}
	})
}

func (c *consensusCluster) proposeAll(values []Value) {
	for i, nd := range c.nodes {
		v := values[i]
		nd := nd
		c.sim.At(0, func() { nd.Propose(v) })
	}
}

// checkAgreementValidity verifies the safety properties over whoever decided.
func (c *consensusCluster) checkAgreementValidity(t *testing.T, proposed []Value, wantDeciders int) Value {
	t.Helper()
	if len(c.decisions) < wantDeciders {
		t.Fatalf("only %d processes decided, want ≥ %d; rounds: %v",
			len(c.decisions), wantDeciders, c.roundsSnapshot())
	}
	var dec Value
	first := true
	for id, v := range c.decisions {
		if first {
			dec = v
			first = false
		} else if v != dec {
			t.Fatalf("agreement violated: %v decided %d, someone else %d", id, v, dec)
		}
	}
	valid := false
	for _, p := range proposed {
		if p == dec {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("validity violated: decided %d not among proposals %v", dec, proposed)
	}
	return dec
}

func (c *consensusCluster) roundsSnapshot() []uint64 {
	out := make([]uint64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.round
	}
	return out
}

func TestConsensusAllCorrect(t *testing.T) {
	c := newConsensusCluster(t, 1, 5, 2, netsim.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond})
	proposed := []Value{10, 20, 30, 40, 50}
	c.proposeAll(proposed)
	c.sim.RunUntil(10 * time.Second)
	c.checkAgreementValidity(t, proposed, 5)
}

func TestConsensusSameProposal(t *testing.T) {
	c := newConsensusCluster(t, 2, 4, 1, netsim.Constant{D: time.Millisecond})
	proposed := []Value{7, 7, 7, 7}
	c.proposeAll(proposed)
	c.sim.RunUntil(10 * time.Second)
	if dec := c.checkAgreementValidity(t, proposed, 4); dec != 7 {
		t.Errorf("decided %d, want 7 (unanimous proposal)", dec)
	}
}

func TestConsensusCoordinatorCrash(t *testing.T) {
	// The round-1 coordinator (p0) crashes immediately; the protocol must
	// rotate to p1 once detectors suspect p0.
	c := newConsensusCluster(t, 3, 5, 2, netsim.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond})
	proposed := []Value{1, 2, 3, 4, 5}
	c.crash(0, 500*time.Microsecond, 50*time.Millisecond)
	c.proposeAll(proposed)
	c.sim.RunUntil(30 * time.Second)
	// p0 may or may not have decided before crashing; the 4 survivors must.
	decided := 0
	for id := range c.decisions {
		if id != 0 {
			decided++
		}
	}
	if decided != 4 {
		t.Fatalf("%d survivors decided, want 4; rounds %v", decided, c.roundsSnapshot())
	}
	c.checkAgreementValidity(t, proposed, 4)
}

func TestConsensusTwoCrashes(t *testing.T) {
	c := newConsensusCluster(t, 4, 5, 2, netsim.Uniform{Min: time.Millisecond, Max: 3 * time.Millisecond})
	proposed := []Value{11, 22, 33, 44, 55}
	c.crash(0, time.Millisecond, 30*time.Millisecond)
	c.crash(1, 2*time.Millisecond, 30*time.Millisecond)
	c.proposeAll(proposed)
	c.sim.RunUntil(30 * time.Second)
	decided := 0
	for id := range c.decisions {
		if id != 0 && id != 1 {
			decided++
		}
	}
	if decided != 3 {
		t.Fatalf("%d survivors decided, want 3; rounds %v", decided, c.roundsSnapshot())
	}
	c.checkAgreementValidity(t, proposed, 3)
}

func TestConsensusSafetyUnderWrongSuspicions(t *testing.T) {
	// Detectors erroneously suspect everyone from the start: liveness can
	// suffer for a while (here the FD is repaired at 1s so runs terminate),
	// but any decisions must still agree.
	c := newConsensusCluster(t, 5, 5, 2, netsim.Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond})
	for _, f := range c.fds {
		for i := 0; i < 5; i++ {
			f.suspect(ident.ID(i))
		}
	}
	proposed := []Value{1, 2, 3, 4, 5}
	c.proposeAll(proposed)
	c.sim.At(time.Second, func() {
		for _, f := range c.fds {
			f.mu.Lock()
			f.set.Clear()
			f.mu.Unlock()
		}
	})
	c.sim.RunUntil(30 * time.Second)
	c.checkAgreementValidity(t, proposed, 5)
}

type duo struct {
	fdNode *core.Node
	cons   *Node
}

func TestConsensusWithRealDetector(t *testing.T) {
	// End-to-end: the time-free ◇S detector feeds consensus. p0 crashes
	// before proposing, so round 1's coordinator must be skipped via real
	// suspicions generated by the query-response protocol.
	sim := des.New(11)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Uniform{Min: time.Millisecond, Max: 4 * time.Millisecond}})
	const n, f = 5, 2

	duos := make([]duo, n)
	decisions := make(map[ident.ID]Value)

	for i := 0; i < n; i++ {
		id := ident.ID(i)
		var d duo
		dPtr := &duos[i]
		env := net.AddNode(id, nodeDemux{dPtr})
		fdNode, err := core.NewNode(env, core.NodeConfig{
			Detector: core.Config{Self: id, N: n, F: f},
			Window:   10 * time.Millisecond,
			Interval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cons, err := NewNode(env, Config{
			Self: id, N: n, F: f, Detector: fdNode,
			OnDecide: func(v Value) { decisions[id] = v },
		})
		if err != nil {
			t.Fatal(err)
		}
		d = duo{fdNode: fdNode, cons: cons}
		duos[i] = d
	}
	for i := range duos {
		duos[i].fdNode.Start()
	}
	net.Crash(0)
	for i := 1; i < n; i++ {
		v := Value(100 + i)
		nd := duos[i].cons
		sim.At(time.Second, func() { nd.Propose(v) })
	}
	sim.RunUntil(60 * time.Second)

	if len(decisions) != 4 {
		t.Fatalf("decisions = %v, want all 4 survivors", decisions)
	}
	var dec Value
	first := true
	for _, v := range decisions {
		if first {
			dec, first = v, false
		} else if v != dec {
			t.Fatalf("agreement violated: %v", decisions)
		}
	}
	if dec < 101 || dec > 104 {
		t.Fatalf("validity violated: %d", dec)
	}
}

// nodeDemux routes FD messages to the detector node and consensus messages
// to the consensus node sharing one identity.
type nodeDemux struct {
	d *duo
}

func (x nodeDemux) Deliver(from ident.ID, payload any) {
	switch payload.(type) {
	case core.Query, core.Response:
		if x.d.fdNode != nil {
			x.d.fdNode.Deliver(from, payload)
		}
	default:
		if x.d.cons != nil {
			x.d.cons.Deliver(from, payload)
		}
	}
}

func TestQuickConsensusRandomized(t *testing.T) {
	// Random delays, random proposals, random single crash with laggy
	// detection: agreement + validity + termination of survivors.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4) // 3..6
		fmax := (n - 1) / 2
		c := newConsensusCluster(t, seed, n, fmax,
			netsim.Exponential{Min: 500 * time.Microsecond, Mean: 2 * time.Millisecond, Cap: 50 * time.Millisecond})
		proposed := make([]Value, n)
		for i := range proposed {
			proposed[i] = Value(r.Intn(100))
		}
		var crashed ident.ID = ident.Nil
		if fmax > 0 && r.Intn(2) == 0 {
			crashed = ident.ID(r.Intn(n))
			c.crash(crashed, time.Duration(r.Intn(20))*time.Millisecond, 50*time.Millisecond)
		}
		c.proposeAll(proposed)
		c.sim.RunUntil(60 * time.Second)

		survivors := 0
		for i := 0; i < n; i++ {
			if ident.ID(i) != crashed {
				survivors++
			}
		}
		decidedSurvivors := 0
		var dec Value
		first := true
		for id, v := range c.decisions {
			if id == crashed {
				continue
			}
			decidedSurvivors++
			if first {
				dec, first = v, false
			} else if v != dec {
				return false // agreement
			}
		}
		if decidedSurvivors != survivors {
			return false // termination
		}
		for _, p := range proposed {
			if p == dec {
				return true // validity
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllocsConsensusPoll locks the coordinator wait at no allocation a poll:
// at n=3 only p1 proposes, so coordinator p0 never gathers the majority of
// estimates it needs to propose, and p1, whose detector trusts p0, consults
// it once every pollInterval, setting the poll's one slot again each time.
func TestAllocsConsensusPoll(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	c := newConsensusCluster(t, 1, 3, 1, netsim.Constant{D: time.Millisecond})
	c.sim.At(0, func() { c.nodes[1].Propose(7) })
	c.sim.RunUntil(time.Second)
	steps := c.sim.Steps()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { c.sim.RunUntil(c.sim.Now() + pollInterval) })
	// AllocsPerRun makes one more call than it measures.
	if got := c.sim.Steps() - steps; got != runs+1 {
		t.Fatalf("%d steps in %d poll intervals, want one each", got, runs+1)
	}
	if r := c.nodes[1].round; r != 1 || len(c.decisions) != 0 {
		t.Fatalf("p1 in round %d with %d decisions, want round 1 and none", r, len(c.decisions))
	}
	if allocs != 0 {
		t.Errorf("one poll: %v allocations, want 0", allocs)
	}
}
