package netsim

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
)

// connIDs bounds the ids a connectivity script names; the network starts
// with connStart of them registered, so AddNode reaches past the slab.
const (
	connIDs   = 16
	connStart = 4
	connOps   = 64
)

// connRef is the test-side model of who may talk to whom: one id→island map
// per partition layer, checked layer by layer, and a neighbourhood map in
// which a missing id means full mesh. Layer maps and neighbourhood sets are
// never mutated once stored, so a snapshot copies the layer slice and the
// neighbourhood map.
type connRef struct {
	registered, crashed [connIDs]bool
	neighbors           map[ident.ID]ident.Set
	layers              []map[ident.ID]int
}

func (r connRef) clone() connRef {
	r.neighbors = maps.Clone(r.neighbors)
	r.layers = append([]map[ident.ID]int(nil), r.layers...)
	return r
}

// cut reports whether some layer puts from and to on different islands; an
// id a layer does not list is on its island 0.
func (r *connRef) cut(from, to ident.ID) bool {
	for _, l := range r.layers {
		if l[from] != l[to] {
			return true
		}
	}
	return false
}

// reach is from's broadcast set: its neighbourhood, or every other
// registered id in the full mesh.
func (r *connRef) reach(from ident.ID) ident.Set {
	if nb, ok := r.neighbors[from]; ok {
		out := nb.Clone()
		out.Remove(from)
		return out
	}
	var out ident.Set
	for id := ident.ID(0); id < connIDs; id++ {
		if r.registered[id] && id != from {
			out.Add(id)
		}
	}
	return out
}

// counter counts deliveries per receiving process.
type counter struct {
	id  ident.ID
	got []int
}

func (c *counter) Deliver(ident.ID, any) { c.got[c.id]++ }

// connScript decodes data into a script of connectivity ops, runs it on a
// network and on the reference, and after every op holds each registered
// process's unicasts, broadcast and Neighbors to the reference. One byte
// opens an op: b%8 picks it and b/8 is its argument.
//
//	0 AddNode(arg%16)              skipped when registered
//	1 SetNeighbors(arg%16, mask)   two mask bytes; missing bytes read 0
//	2 Partition(k = arg%4 islands) two mask bytes per island; arg&4 adds
//	                               ident.Nil to each island, arg&8 lets
//	                               islands overlap (Partition must panic)
//	3 Heal()
//	4 Snapshot into slot arg%2
//	5 Restore from slot arg%2      skipped when the slot is empty
//	6 Crash(arg%16)
//	7 Recover(arg%16)
func connScript(t *testing.T, data []byte) {
	sim := des.New(1)
	net := New(sim, Config{Delay: Constant{D: time.Millisecond}})
	got := make([]int, connIDs)
	handlers := make([]*counter, connIDs)
	for i := range handlers {
		handlers[i] = &counter{id: ident.ID(i), got: got}
	}
	var ref connRef
	for id := ident.ID(0); id < connStart; id++ {
		net.AddNode(id, handlers[id])
		ref.registered[id] = true
	}
	var (
		snaps    [2]*Snapshot
		refSnaps [2]connRef
	)
	mask := func() ident.Set {
		var m uint16
		for i := 0; i < 2 && len(data) > 0; i++ {
			m |= uint16(data[0]) << (8 * i)
			data = data[1:]
		}
		var s ident.Set
		for id := ident.ID(0); id < connIDs; id++ {
			if m&(1<<id) != 0 {
				s.Add(id)
			}
		}
		return s
	}
	for step := 0; step < connOps && len(data) > 0; step++ {
		op, arg := data[0]%8, int(data[0]/8)
		data = data[1:]
		id := ident.ID(arg % connIDs)
		switch op {
		case 0:
			if !ref.registered[id] {
				net.AddNode(id, handlers[id])
				ref.registered[id] = true
			}
		case 1:
			nb := mask()
			net.SetNeighbors(id, nb)
			if ref.neighbors == nil {
				ref.neighbors = make(map[ident.ID]ident.Set)
			}
			ref.neighbors[id] = nb
		case 2:
			var islands [][]ident.ID
			layer := make(map[ident.ID]int)
			var used ident.Set
			dup := false
			for i := 0; i < arg%4; i++ {
				m := mask()
				var island []ident.ID
				if arg&4 != 0 {
					island = append(island, ident.Nil)
				}
				m.ForEach(func(id ident.ID) bool {
					if used.Has(id) && arg&8 == 0 {
						return true
					}
					dup = dup || used.Has(id)
					used.Add(id)
					island = append(island, id)
					layer[id] = i + 1
					return true
				})
				islands = append(islands, island)
			}
			if dup { // the panicking call must leave the network as it was
				if !panics(func() { net.Partition(islands...) }) {
					t.Fatalf("step %d: Partition%v with a process in two islands did not panic", step, islands)
				}
				break
			}
			net.Partition(islands...)
			ref.layers = append(ref.layers[:len(ref.layers):len(ref.layers)], layer)
		case 3:
			want := len(ref.layers) > 0
			if want {
				ref.layers = ref.layers[:len(ref.layers)-1]
			}
			if got := net.Heal(); got != want {
				t.Fatalf("step %d: Heal() = %v, want %v", step, got, want)
			}
		case 4:
			snaps[arg%2], refSnaps[arg%2] = net.Snapshot(), ref.clone()
		case 5:
			if snaps[arg%2] != nil {
				net.Restore(snaps[arg%2])
				ref = refSnaps[arg%2].clone()
			}
		case 6:
			net.Crash(id)
			ref.crashed[id] = true
		case 7:
			net.Recover(id)
			ref.crashed[id] = false
		}
		checkConnectivity(t, step, sim, net, &ref, got)
	}
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// checkConnectivity sends every ordered pair's unicast and every registered
// process's broadcast through the network, one at a time, and compares the
// traffic counters and the receivers with what ref decides.
func checkConnectivity(t *testing.T, step int, sim *des.Simulator, net *Network, ref *connRef, got []int) {
	t.Helper()
	// deliverable is whether an admitted message to id reaches a handler.
	deliverable := func(id ident.ID) bool { return ref.registered[id] && !ref.crashed[id] }
	// expect runs fn, one Send (to >= 0) or a Broadcast (to = Nil) from
	// from, and holds its traffic to what ref decides for targets.
	expect := func(from, to ident.ID, targets ident.Set, fn func()) {
		t.Helper()
		what := func() string {
			if to == ident.Nil {
				return fmt.Sprintf("Broadcast from %v", from)
			}
			return fmt.Sprintf("Send %v→%v", from, to)
		}
		want := make([]int, connIDs)
		copy(want, got)
		var sent, dropped, delivered int64
		if !ref.crashed[from] {
			targets.ForEach(func(to ident.ID) bool {
				sent++
				switch {
				case ref.cut(from, to):
					dropped++
				case deliverable(to):
					delivered++
					want[to]++
				}
				return true
			})
		}
		before := net.Stats()
		fn()
		sim.Run()
		after := net.Stats()
		if d := after.Sent - before.Sent; d != sent {
			t.Fatalf("step %d: %s: %d sent, want %d", step, what(), d, sent)
		}
		if d := after.Dropped - before.Dropped; d != dropped {
			t.Fatalf("step %d: %s: %d dropped, want %d", step, what(), d, dropped)
		}
		if d := after.Delivered - before.Delivered; d != delivered {
			t.Fatalf("step %d: %s: %d delivered, want %d", step, what(), d, delivered)
		}
		for id := range got {
			if got[id] != want[id] {
				t.Fatalf("step %d: %s: p%d received %d, want %d", step, what(), id, got[id], want[id])
			}
		}
	}
	for from := ident.ID(0); from < connIDs; from++ {
		if !ref.registered[from] {
			continue
		}
		reach := ref.reach(from)
		nb, restricted := ref.neighbors[from]
		if got := net.Neighbors(from); !got.Equal(reach) {
			t.Fatalf("step %d: Neighbors(%v) = %v, want %v", step, from, got, reach)
		}
		env := net.Env(from)
		for to := ident.ID(0); to < connIDs; to++ {
			// A unicast outside a neighbourhood, or to oneself, is never
			// sent; in the full mesh one to an unregistered id is.
			var targets ident.Set
			if to != from && (!restricted || nb.Has(to)) {
				targets.Add(to)
			}
			expect(from, to, targets, func() { env.Send(to, nil) })
		}
		expect(from, ident.Nil, reach, func() { env.Broadcast(nil) })
	}
}

// FuzzConnectivityMatchesReference holds the network's partition stack and
// neighbourhoods, across AddNode, Snapshot/Restore and Crash/Recover, to a
// reference that keeps one id→island map per layer and checks every layer.
// Committed seeds are in testdata/fuzz/FuzzConnectivityMatchesReference.
func FuzzConnectivityMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { connScript(t, data) })
}
