package faults

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
)

func TestScheduleBuilders(t *testing.T) {
	s := Schedule{}.
		CrashAt(1, time.Second).
		RecoverAt(1, 2*time.Second, true).
		PartitionAt(3*time.Second, []ident.ID{0, 1}).
		HealAt(4*time.Second).
		CrashAt(2, 5*time.Second)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	kinds := []EventKind{KindCrash, KindRecover, KindPartition, KindHeal, KindCrash}
	for i, k := range kinds {
		if s[i].Kind != k {
			t.Errorf("s[%d].Kind = %v, want %v", i, s[i].Kind, k)
		}
	}
	if !s[1].FreshState {
		t.Error("RecoverAt(fresh=true) lost the flag")
	}
	if len(s[2].Islands) != 1 || len(s[2].Islands[0]) != 2 {
		t.Errorf("partition islands = %v", s[2].Islands)
	}
	ids := s.IDs()
	if !ids.Has(1) || !ids.Has(2) || ids.Len() != 2 {
		t.Errorf("IDs = %v (recover/partition/heal must not count)", ids)
	}
}

func TestUniformSpreadsAndDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	candidates := []ident.ID{0, 1, 2, 3, 4, 5, 6, 7}
	p := Uniform(r, candidates, 5, 10*time.Second, 20*time.Second)
	if len(p) != 5 {
		t.Fatalf("len = %d, want 5", len(p))
	}
	if p.IDs().Len() != 5 {
		t.Error("crash ids not distinct")
	}
	if p[0].At != 10*time.Second || p[4].At != 20*time.Second {
		t.Errorf("span = [%v, %v], want [10s, 20s]", p[0].At, p[4].At)
	}
	for i := 1; i < len(p); i++ {
		if p[i].At < p[i-1].At {
			t.Error("plan not sorted by time")
		}
	}
}

func TestUniformEdgeCases(t *testing.T) {
	candidates := []ident.ID{0, 1, 2}
	cases := []struct {
		name       string
		candidates []ident.ID
		count      int
		wantLen    int
	}{
		{"count zero", candidates, 0, 0},
		{"count negative", candidates, -3, 0},
		{"empty candidates", nil, 4, 0},
		{"count above len clamps", []ident.ID{0, 1}, 5, 2},
		{"single candidate", []ident.ID{7}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			p := Uniform(r, tc.candidates, tc.count, 0, 10*time.Second)
			if len(p) != tc.wantLen {
				t.Fatalf("len = %d, want %d", len(p), tc.wantLen)
			}
			if p.IDs().Len() != tc.wantLen {
				t.Errorf("ids not distinct: %v", p.IDs())
			}
		})
	}
	// A single crash lands mid-span.
	r := rand.New(rand.NewSource(1))
	p := Uniform(r, candidates, 1, 10*time.Second, 20*time.Second)
	if len(p) != 1 || p[0].At != 15*time.Second {
		t.Errorf("plan = %+v, want single crash at 15s", p)
	}
}

func TestUniformDeterministicAcrossIdenticalSeeds(t *testing.T) {
	candidates := []ident.ID{0, 1, 2, 3, 4, 5}
	a := Uniform(rand.New(rand.NewSource(42)), candidates, 4, time.Second, 9*time.Second)
	b := Uniform(rand.New(rand.NewSource(42)), candidates, 4, time.Second, 9*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	c := Uniform(rand.New(rand.NewSource(43)), candidates, 4, time.Second, 9*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Log("different seeds produced identical plans (possible but unlikely)")
	}
}

// probe tells, by delivery, whether a process is up: a crashed process sends
// nothing, so a message from it reaches the probe's own node only while it
// is up. The links have no delay, so the message lands in the same instant.
type probe struct {
	sim  *des.Simulator
	net  *netsim.Network
	self ident.ID
	got  []any
}

// newProbe registers the probe as process self of a zero-delay network.
func newProbe(sim *des.Simulator, net *netsim.Network, self ident.ID) *probe {
	p := &probe{sim: sim, net: net, self: self}
	net.AddNode(self, node.HandlerFunc(func(_ ident.ID, payload any) { p.got = append(p.got, payload) }))
	return p
}

// up reports whether id is up now. Call it outside the simulation's events.
func (p *probe) up(id ident.ID) bool {
	before := len(p.got)
	p.net.Env(id).Send(p.self, "probe")
	p.sim.RunUntil(p.sim.Now())
	return len(p.got) > before
}

func TestApplyCrashStop(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	net.AddNode(1, node.HandlerFunc(func(ident.ID, any) {}))
	p := newProbe(sim, net, 2)

	s := Schedule{}.CrashAt(1, 5*time.Second)
	truth := s.Apply(sim, net)

	if at, ok := truth.CrashTime(1); !ok || at != 5*time.Second {
		t.Errorf("truth = %v,%v", at, ok)
	}
	sim.RunUntil(4 * time.Second)
	if !p.up(1) {
		t.Error("crash applied early")
	}
	sim.RunUntil(6 * time.Second)
	if p.up(1) {
		t.Error("crash not applied")
	}
	if !p.up(0) {
		t.Error("wrong node crashed")
	}
}

func TestApplyRecoverAndHook(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{}})
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	net.AddNode(1, node.HandlerFunc(func(ident.ID, any) {}))
	p := newProbe(sim, net, 2)

	// Appended out of time order on purpose: Apply must sort.
	s := Schedule{}.
		RecoverAt(1, 10*time.Second, true).
		CrashAt(1, 5*time.Second)
	type call struct {
		id    ident.ID
		fresh bool
		at    time.Duration
	}
	var calls []call
	truth := s.ApplyFunc(sim, net, func(id ident.ID, fresh bool) {
		// Sent only if the network has revived id already.
		net.Env(id).Send(p.self, "from the hook")
		calls = append(calls, call{id, fresh, sim.Now()})
	})

	sim.RunUntil(7 * time.Second)
	if p.up(1) {
		t.Error("crash not applied")
	}
	sim.RunUntil(11 * time.Second)
	if !p.up(1) {
		t.Error("recovery not applied")
	}
	if !slices.Contains(p.got, any("from the hook")) {
		t.Error("hook ran before the network revived the process")
	}
	if len(calls) != 1 || calls[0].id != 1 || !calls[0].fresh || calls[0].at != 10*time.Second {
		t.Errorf("hook calls = %+v", calls)
	}
	ivs := truth.Intervals(1)
	if len(ivs) != 1 || ivs[0].Start != 5*time.Second || ivs[0].End != 10*time.Second {
		t.Errorf("intervals = %+v", ivs)
	}
}

func TestApplyPartitionHealDrivesNetwork(t *testing.T) {
	sim := des.New(1)
	net := netsim.New(sim, netsim.Config{Delay: netsim.Constant{D: time.Microsecond}})
	var got []ident.ID
	net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	net.AddNode(1, node.HandlerFunc(func(from ident.ID, _ any) { got = append(got, from) }))
	net.AddNode(2, node.HandlerFunc(func(ident.ID, any) {}))

	s := Schedule{}.
		PartitionAt(time.Second, []ident.ID{0}).
		HealAt(2 * time.Second)
	s.Apply(sim, net)

	env := net.Env(0)
	sim.At(500*time.Millisecond, func() { env.Send(1, "pre") })
	sim.At(1500*time.Millisecond, func() { env.Send(1, "during") })
	sim.At(2500*time.Millisecond, func() { env.Send(1, "post") })
	sim.RunUntil(3 * time.Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (partition window must drop one)", len(got))
	}
}
