package netsim

import (
	"fmt"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
	"asyncfd/internal/raceflag"
)

type recorder struct {
	at   []time.Duration
	from []ident.ID
	sim  *des.Simulator
}

func (r *recorder) Deliver(from ident.ID, payload any) {
	r.at = append(r.at, r.sim.Now())
	r.from = append(r.from, from)
}

// TestBroadcastMatchesUnicast checks the broadcast path — one kernel fan-out
// node — against per-neighbor unicast sends — one kernel message each: same
// rng-driven delays, same delivery times, same per-destination order, same
// stats.
func TestBroadcastMatchesUnicast(t *testing.T) {
	build := func() (*des.Simulator, *Network, []*recorder) {
		sim := des.New(42)
		net := New(sim, Config{
			Delay: lossy{Exponential{Min: time.Millisecond, Mean: 5 * time.Millisecond, Cap: time.Second}, 0.2},
		})
		recs := make([]*recorder, 6)
		for i := range recs {
			recs[i] = &recorder{sim: sim}
			net.AddNode(ident.ID(i), recs[i])
		}
		return sim, net, recs
	}

	simA, netA, recsA := build()
	envA := netA.Env(0)
	for round := 0; round < 50; round++ {
		simA.After(time.Duration(round)*10*time.Millisecond, func() { envA.Broadcast("q") })
	}
	simA.Run()

	simB, netB, recsB := build()
	envB := netB.Env(0)
	for round := 0; round < 50; round++ {
		simB.After(time.Duration(round)*10*time.Millisecond, func() {
			// Manual fan-out over the same neighbor order Broadcast uses.
			netB.Neighbors(0).ForEach(func(to ident.ID) bool {
				envB.Send(to, "q")
				return true
			})
		})
	}
	simB.Run()

	if netA.Stats() != netB.Stats() {
		t.Fatalf("stats diverged: broadcast %+v vs unicast %+v", netA.Stats(), netB.Stats())
	}
	for i := range recsA {
		a, b := recsA[i], recsB[i]
		if len(a.at) != len(b.at) {
			t.Fatalf("node %d: %d vs %d deliveries", i, len(a.at), len(b.at))
		}
		for j := range a.at {
			if a.at[j] != b.at[j] || a.from[j] != b.from[j] {
				t.Fatalf("node %d delivery %d: (%v, %v) vs (%v, %v)",
					i, j, a.at[j], a.from[j], b.at[j], b.from[j])
			}
		}
	}
}

// TestBroadcastCrashedSenderSilent ensures the broadcast path honors the
// crash-stop model at send time.
func TestBroadcastCrashedSenderSilent(t *testing.T) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Constant{D: time.Millisecond}})
	rec := &recorder{sim: sim}
	env := net.AddNode(0, node.HandlerFunc(func(ident.ID, any) {}))
	net.AddNode(1, rec)
	net.Crash(0)
	env.Broadcast("q")
	sim.Run()
	if len(rec.at) != 0 {
		t.Errorf("crashed sender delivered %d messages", len(rec.at))
	}
	if net.Stats().Sent != 0 {
		t.Errorf("crashed sender counted %d sends", net.Stats().Sent)
	}
}

// meshOf builds a full mesh of n silent processes with the dense-mesh
// workload's delay model and returns process 0's environment.
func meshOf(n int) (*des.Simulator, *Network, *Env) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Exponential{Min: 500 * time.Microsecond, Mean: 700 * time.Microsecond, Cap: 100 * time.Millisecond}})
	for i := 0; i < n; i++ {
		net.AddNode(ident.ID(i), node.HandlerFunc(func(ident.ID, any) {}))
	}
	return sim, net, net.Env(0)
}

// halve installs one partition layer on net cutting {0, ..., n/2-1} off
// from the rest of an n-process mesh.
func halve(net *Network, n int) {
	island := make([]ident.ID, n/2)
	for i := range island {
		island[i] = ident.ID(i)
	}
	net.Partition(island)
}

// TestAllocsSendPath locks the send path at zero allocations: a broadcast
// of degree 127 and a unicast are queued as data, so once the kernel's slab
// and item pool have warmed up neither allocates — not per receiver, not per
// message. (Boxing the payload is the sender's; it is boxed once here.) The
// admission checks — a partition layer, a neighbourhood — allocate nothing
// either, and the messages they cut are counted as dropped.
func TestAllocsSendPath(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	sim, net, env := meshOf(128)
	var payload any = "q"
	for i := 0; i < 10; i++ { // warm the slab, the item pool and the queue
		env.Broadcast(payload)
		net.send(0, 1, payload)
		sim.Run()
	}
	if a := testing.AllocsPerRun(100, func() { env.Broadcast(payload); sim.Run() }); a != 0 {
		t.Errorf("Broadcast at degree 127, delivered: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { net.send(0, 1, payload); sim.Run() }); a != 0 {
		t.Errorf("Network.send, delivered: %v allocations, want 0", a)
	}
	if sent := net.Stats().Sent; sent != net.Stats().Delivered || sent == 0 {
		t.Errorf("stats %+v: every message sent must have been delivered", net.Stats())
	}

	// One partition layer, {0..63} | {64..127}, and a neighbourhood
	// restricting 0 to the odd ids: each broadcast reaches 32 processes on
	// its island and is cut towards 32 on the other.
	sim, net, env = meshOf(128)
	halve(net, 128)
	var odd ident.Set
	for id := ident.ID(1); id < 128; id += 2 {
		odd.Add(id)
	}
	net.SetNeighbors(0, odd)
	calls := 0
	cases := []struct {
		name string
		fn   func()
	}{
		{"Broadcast, one layer and a neighbourhood", func() { env.Broadcast(payload) }},
		{"Network.send within an island", func() { net.send(0, 1, payload) }},
		{"Network.send across islands", func() { net.send(0, 65, payload) }},
	}
	for i := 0; i < 10; i++ {
		for _, c := range cases {
			c.fn()
			sim.Run()
		}
	}
	for _, c := range cases {
		if a := testing.AllocsPerRun(100, func() { c.fn(); sim.Run(); calls++ }); a != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, a)
		}
	}
	// Each case ran 10 times to warm up, then calls/3 times under AllocsPerRun.
	rounds := int64(10 + calls/len(cases))
	want := Stats{Sent: rounds * 66, Delivered: rounds * 33, Dropped: rounds * 33}
	if got := net.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// TestAllocsBroadcastAfterRestore locks the fan-out cache across
// checkpoints: a Restore invalidates every node's cached fan-out but keeps
// its storage, so once every node has broadcast after a first Restore, a
// broadcast by every node after a second allocates nothing beyond the
// Restore itself (it rebuilt every list in fresh storage before).
func TestAllocsBroadcastAfterRestore(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const n = 128
	sim, net, _ := meshOf(n)
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = net.Env(ident.ID(i))
	}
	var payload any = "q"
	broadcastAll := func() {
		for _, env := range envs {
			env.Broadcast(payload)
		}
		sim.Run()
	}
	snap := net.Snapshot()
	broadcastAll()
	net.Restore(snap)
	broadcastAll()
	restore := testing.AllocsPerRun(10, func() { net.Restore(snap) })
	both := testing.AllocsPerRun(10, func() {
		net.Restore(snap)
		broadcastAll()
	})
	if both != restore {
		t.Errorf("a broadcast by each of %d nodes after a Restore: %v allocations, want 0", n, both-restore)
	}
}

// BenchmarkBroadcast is the netsim row of the layer ledger
// (docs/BENCHMARKS.md): one broadcast admitted, queued and delivered to
// silent handlers, by degree; "partitioned" is degree 127 under one
// partition layer that cuts the 64 highest ids off the sender's island.
func BenchmarkBroadcast(b *testing.B) {
	run := func(b *testing.B, deg int, partitioned bool) {
		sim, net, env := meshOf(deg + 1)
		if partitioned {
			halve(net, deg+1)
		}
		var payload any = "q"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Broadcast(payload)
			sim.Run()
		}
	}
	for _, deg := range []int{8, 127} {
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) { run(b, deg, false) })
	}
	b.Run("partitioned", func(b *testing.B) { run(b, 127, true) })
}
