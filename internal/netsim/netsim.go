// Package netsim simulates an asynchronous message-passing network on the
// discrete-event kernel. Message delays are drawn per message from a
// pluggable DelayModel, so messages are arbitrarily reordered — exactly the
// asynchronous model of the paper. Links are reliable by default (the
// paper's assumption); a delay model that also decides loss (LossModel),
// per-process neighbourhoods and first-class partitions are available for the
// extension and fault-scenario experiments (partial connectivity, mobility,
// partition/heal), and crashed processes can be revived for crash-recovery
// scenarios.
//
// In the repository README's architecture map this is the "asynchronous
// network model" layer: internal/faults schedules Crash/Recover/Partition/
// Heal events against it, and every internal/exp cluster sends through it.
// Scenario-driven connectivity changes are Partition/Heal (who may talk to
// whom for a while) and SetNeighbors (who is in range of whom).
//
// # Sparse delivery
//
// The send path is built so per-message cost depends on the sender's
// connectivity degree, never on the cluster size n — the property that
// makes the n=1024–4096 topology sweeps (experiment LT) tractable:
//
//   - Broadcast fans out over a precomputed per-node neighbor list, rebuilt
//     lazily only when the topology epoch changes (AddNode/SetNeighbors).
//     No full-mesh ident.Set is ever materialized per message.
//   - Messages and deadlines are handed to the kernel as data, not
//     closures: a unicast is one typed event (from, to, payload), a
//     broadcast one fan-out node holding the shared (from, payload) and a
//     pointer-free item per admitted receiver, sorted by delivery time once
//     and merged with the other broadcasts in flight through the kernel's
//     event heap, a process's timeouts one deadline table, a timer an
//     (owner, callback) pair. The network registers itself with its
//     simulator as the des.Sink those events come back to — Deliver at
//     delivery time, Alive when an owned timer or deadline comes due — so
//     the send path allocates nothing per receiver.
//   - Who may talk to whom is kept in plain arrays indexed by process id:
//     each partition layer is one island number per process, and admitting
//     a message compares its two ends' numbers layer by layer, one
//     comparison per active partition.
//   - Timers and deadlines armed by an already-crashed process are dropped
//     at arm time (the callback is suppressed at fire time anyway), so long
//     downtimes no longer fill the kernel queue with dead weight.
//
// # Checkpoints
//
// What a run changes — registrations, the crash set, neighbourhoods, the
// partition stack, the counters — is one value, state, made of slices and
// sets indexed by process id; Snapshot/Restore are one copy of it
// (state.copyTo) in the two directions, slice by slice, and it holds no map.
// The fan-out cache and scratch buffers sit outside it and are rebuilt.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Config parameterizes a simulated network.
type Config struct {
	// Delay is the latency model; required. One that implements LossModel
	// also decides which messages are lost; under any other, links are
	// reliable (the paper's model).
	Delay DelayModel
	// SizeOf, if set, returns the wire size of a payload for byte
	// accounting in Stats.
	SizeOf func(payload any) int
}

// Stats aggregates traffic counters.
type Stats struct {
	Sent      int64 // messages handed to the network
	Delivered int64 // messages delivered to a live process
	Dropped   int64 // lost to a LossModel or a partition
	Bytes     int64 // wire bytes sent (only if Config.SizeOf set)
}

// island returns id's island number in one partition layer: 1 + the index of
// the island that lists it, or 0 for a process the partition did not list
// (ids past the layer's end and negative ids included).
func island(layer []int32, id ident.ID) int32 {
	if id >= 0 && int(id) < len(layer) {
		return layer[id]
	}
	return 0
}

// fanoutEntry is one node's cached broadcast fan-out list (ascending ID
// order, self excluded), valid for the topology epoch it was built at.
type fanoutEntry struct {
	epoch uint64
	ids   []ident.ID
}

// state is everything about a Network that a run changes — who is registered,
// who is down, who may talk to whom, the traffic counters — and so everything
// a checkpoint holds: Snapshot and Restore are state.copyTo run in the two
// directions, and a field added here is checkpointed by being here.
type state struct {
	// handlers is a dense slab indexed by ID (nil = unregistered); process
	// identities are small dense integers, so a slice beats a map on every
	// delivery lookup.
	handlers []node.Handler
	crashed  ident.Set
	// restricted holds the ids with a neighbourhood; neighbors[id] is that
	// neighbourhood, to which id's broadcasts and sends are restricted
	// (extension topologies). An id outside restricted is in the full
	// mesh; one in it with an empty set reaches no one.
	restricted ident.Set
	neighbors  []ident.Set
	// topoEpoch stamps the current topology generation; AddNode and
	// SetNeighbors bump it, invalidating every cached fan-out list. It
	// starts above staleEpoch.
	topoEpoch uint64
	// partitions is the LIFO stack of partition layers, each one island
	// number per process id (see island); a message passes iff every layer
	// puts its two ends on the same island.
	partitions [][]int32
	stats      Stats
}

// Network is the simulated medium. All methods must be called from the
// simulation goroutine (i.e., inside DES events or before the run starts).
type Network struct {
	state

	sim *des.Simulator //fdlint:allow clonefields immutable kernel reference
	cfg Config         //fdlint:allow clonefields immutable config, set once at construction
	// loss is cfg.Delay when that decides loss too, resolved once.
	loss LossModel //fdlint:allow clonefields immutable, derived from cfg at construction
	// fanout caches per-node broadcast fan-out lists, rebuilt lazily when
	// their epoch stamp is stale.
	//fdlint:allow clonefields derived cache; Restore invalidates every entry and rebuilds lazily
	fanout []fanoutEntry
	// bcast is the broadcast fan-out scratch buffer, reused across
	// Broadcast calls (Fanout reads it synchronously, and the kernel pools
	// the per-node item storage itself), so steady-state gossip stops
	// allocating one slice per broadcast.
	//fdlint:allow clonefields scratch buffer; contents are dead between Broadcast calls
	bcast []des.Receiver
}

// New builds a network on sim and registers it as sim's delivery sink: a
// simulator carries one network.
func New(sim *des.Simulator, cfg Config) *Network {
	if cfg.Delay == nil {
		panic("netsim: Config.Delay is required")
	}
	n := &Network{state: state{topoEpoch: staleEpoch + 1}, sim: sim, cfg: cfg}
	n.loss, _ = cfg.Delay.(LossModel)
	sim.SetSink((*sink)(n))
	return n
}

// sink is the Network as the kernel sees it (des.Sink), kept off the
// Network's own method set.
type sink Network

// Deliver implements des.Sink.
func (k *sink) Deliver(from, to ident.ID, payload any) { (*Network)(k).deliver(from, to, payload) }

// Alive implements des.Sink: a crashed process fires no timers.
func (k *sink) Alive(owner ident.ID) bool { return !k.crashed.Has(owner) }

// registered reports whether id has a handler.
func (n *Network) registered(id ident.ID) bool {
	return id >= 0 && int(id) < len(n.handlers) && n.handlers[id] != nil
}

// AddNode registers a process and returns its environment. Registering the
// same id twice panics: it is a programming error in experiment setup.
func (n *Network) AddNode(id ident.ID, h node.Handler) *Env {
	if !id.Valid() {
		panic(fmt.Sprintf("netsim: invalid node id %v", id))
	}
	if n.registered(id) {
		panic(fmt.Sprintf("netsim: duplicate node %v", id))
	}
	for int(id) >= len(n.handlers) {
		n.handlers = append(n.handlers, nil)
		n.fanout = append(n.fanout, fanoutEntry{})
	}
	n.handlers[id] = h
	n.topoEpoch++ // full-mesh fan-out lists must now include id
	return &Env{net: n, id: id}
}

// Env returns the environment bound to id (which must be registered).
func (n *Network) Env(id ident.ID) *Env {
	if !n.registered(id) {
		panic(fmt.Sprintf("netsim: unknown node %v", id))
	}
	return &Env{net: n, id: id}
}

// Nodes returns the registered process identities.
func (n *Network) Nodes() ident.Set {
	s := ident.NewSet(len(n.handlers))
	for i, h := range n.handlers {
		if h != nil {
			s.Add(ident.ID(i))
		}
	}
	return s
}

// Crash marks id as crashed: it stops sending, receiving and firing timers.
// Without a later Recover this is the crash-stop model; with one it is the
// crash phase of a crash-recovery fault.
func (n *Network) Crash(id ident.ID) { n.crashed.Add(id) }

// Recover reverses a Crash: id sends, receives and fires newly armed timers
// again. Timers that came due while the process was down stay suppressed
// (armed-while-down timers were dropped at arm time, armed-before-the-crash
// ones at fire time); reviving the process's protocol activity is the
// detector runtime's job (fd.Restartable).
func (n *Network) Recover(id ident.ID) { n.crashed.Remove(id) }

// SetNeighbors restricts id's outgoing traffic to the given set (used by the
// partial-connectivity extension). It does not make links symmetric; callers
// model radio ranges by setting both directions. An empty set silences id's
// sends and broadcasts, unlike the full mesh every id starts in.
func (n *Network) SetNeighbors(id ident.ID, neighbors ident.Set) {
	for int(id) >= len(n.neighbors) {
		n.neighbors = append(n.neighbors, ident.Set{})
	}
	n.neighbors[id] = neighbors.Clone()
	n.restricted.Add(id)
	n.topoEpoch++
}

// Neighbors returns the broadcast set for id: its configured neighborhood,
// or every other registered node in the default full mesh.
func (n *Network) Neighbors(id ident.ID) ident.Set {
	if n.restricted.Has(id) {
		out := n.neighbors[id].Clone()
		out.Remove(id)
		return out
	}
	out := n.Nodes()
	out.Remove(id)
	return out
}

// fanoutFor returns id's broadcast fan-out list (ascending ID order, self
// excluded), rebuilding the cached copy if the topology changed since it was
// built. Unregistered neighbor ids stay in the list — sending to them counts
// as traffic and delivers to nobody, exactly as an explicit Send would.
func (n *Network) fanoutFor(id ident.ID) []ident.ID {
	fe := &n.fanout[id]
	if fe.epoch == n.topoEpoch {
		return fe.ids
	}
	ids := fe.ids[:0]
	if n.restricted.Has(id) {
		n.neighbors[id].ForEach(func(to ident.ID) bool {
			if to != id {
				ids = append(ids, to)
			}
			return true
		})
	} else {
		for i, h := range n.handlers {
			if h != nil && ident.ID(i) != id {
				ids = append(ids, ident.ID(i))
			}
		}
	}
	fe.ids, fe.epoch = ids, n.topoEpoch
	return ids
}

// Partition splits the cluster into islands: a message is dropped unless its
// endpoints belong to the same island. Processes not listed in any island
// together form one implicit extra island, so Partition([]ident.ID{a, b})
// cuts {a, b} off from everyone else with one call. Partitions stack — a
// second Partition further constrains the first — and Heal removes the most
// recent one. Listing a process in two islands (or twice at all) panics: it
// is a programming error in scenario setup, and silently letting the last
// listing win would corrupt the island semantics. A panicking call installs
// nothing.
//
// Each call pushes one layer: the island number of every listed process
// (see island), written once here.
func (n *Network) Partition(islands ...[]ident.ID) {
	var layer []int32
	for i, ids := range islands {
		for _, id := range ids {
			if !id.Valid() {
				continue
			}
			for int(id) >= len(layer) {
				layer = append(layer, 0)
			}
			if layer[id] != 0 {
				panic(fmt.Sprintf("netsim: process %v listed in two islands", id))
			}
			layer[id] = int32(i + 1)
		}
	}
	n.partitions = append(n.partitions, layer)
}

// Heal removes the most recently installed partition, reporting whether one
// was active.
func (n *Network) Heal() bool {
	k := len(n.partitions)
	if k == 0 {
		return false
	}
	n.partitions = n.partitions[:k-1]
	return true
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Snapshot is a checkpoint of the network's mutable state, taken with
// Network.Snapshot and rolled back with Network.Restore. It pairs with
// des.Snapshot: the kernel checkpoint holds the in-flight messages (their
// endpoints and payloads), this one holds liveness, topology, partitions and
// traffic counters. It shares no mutable storage with the live network.
type Snapshot struct{ st state }

// copyTo makes dst a copy of s that shares no mutable storage with it,
// reusing dst's handler, neighbourhood and partition-stack arrays. Handler
// identities are shared by reference (the detector runtimes checkpoint their
// own state); crash set, neighbourhoods and partition layers are deep-copied.
func (s *state) copyTo(dst *state) {
	handlers, neighbors, partitions := dst.handlers, dst.neighbors[:0], dst.partitions[:0]
	*dst = *s
	dst.handlers = append(handlers[:0], s.handlers...)
	dst.crashed = s.crashed.Clone()
	dst.restricted = s.restricted.Clone()
	for _, nb := range s.neighbors {
		neighbors = append(neighbors, nb.Clone())
	}
	for _, layer := range s.partitions {
		partitions = append(partitions, append([]int32(nil), layer...))
	}
	dst.neighbors, dst.partitions = neighbors, partitions
}

// Snapshot captures the network's mutable state.
func (n *Network) Snapshot() *Snapshot {
	snap := new(Snapshot)
	n.state.copyTo(&snap.st)
	return snap
}

// Restore rolls the network back to the checkpoint, in place (the kernel
// delivers its pending messages to this Network, its registered sink, so
// replication rewinds it rather than building a second one). The same
// snapshot restores any number of times. Every fan-out cache entry is
// invalidated, its list storage kept for the lazy rebuild: the restored
// epoch may equal one an entry was stamped with after the checkpoint, under
// another topology, so each entry takes staleEpoch, which topoEpoch never
// takes.
func (n *Network) Restore(snap *Snapshot) {
	snap.st.copyTo(&n.state)
	n.fanout = slices.Grow(n.fanout, max(0, len(n.handlers)-len(n.fanout)))[:len(n.handlers)]
	for i := range n.fanout {
		n.fanout[i].epoch = staleEpoch
	}
}

// staleEpoch is the epoch of a fan-out cache entry that must be rebuilt:
// topoEpoch starts above it and only grows.
const staleEpoch = 0

// send is the single unicast transmission path. When a neighborhood is
// configured for the sender, point-to-point sends outside it are dropped
// too: in the radio model a node can only talk to processes within its
// range.
func (n *Network) send(from, to ident.ID, payload any) {
	if n.crashed.Has(from) || from == to {
		return
	}
	if n.restricted.Has(from) && !n.neighbors[from].Has(to) {
		return
	}
	delay, ok := n.admit(from, to, payload)
	if !ok {
		return
	}
	n.sim.Send(delay, from, to, payload)
}

// admit runs the send-time checks shared by unicast and broadcast — stats,
// the island check in each partition layer, loss — and samples the link
// delay for an admitted message.
func (n *Network) admit(from, to ident.ID, payload any) (time.Duration, bool) {
	now := n.sim.Now()
	n.stats.Sent++
	if n.cfg.SizeOf != nil {
		n.stats.Bytes += int64(n.cfg.SizeOf(payload))
	}
	for _, layer := range n.partitions {
		if island(layer, from) != island(layer, to) {
			n.stats.Dropped++
			return 0, false
		}
	}
	// A LossModel decides loss and delay in one call (e.g. trace replay with
	// recorded loss samples); plain models keep the historical single Delay
	// call so their RNG draw sequence is unchanged.
	if n.loss != nil {
		delay, deliver := n.loss.DelayLoss(n.sim.Rand(), from, to, now)
		if !deliver {
			n.stats.Dropped++
			return 0, false
		}
		return delay, true
	}
	return n.cfg.Delay.Delay(n.sim.Rand(), from, to, now), true
}

// deliver hands payload to the destination process, if it is still alive.
func (n *Network) deliver(from, to ident.ID, payload any) {
	if n.crashed.Has(to) || !n.registered(to) {
		return
	}
	n.stats.Delivered++
	n.handlers[to].Deliver(from, payload)
}

// Env binds one process identity to the network; it implements node.Env.
type Env struct {
	net *Network
	id  ident.ID
}

var _ node.Env = (*Env)(nil)

// deadTimer is the handle returned for timers dropped at arm time (armed by
// an already-crashed process): never pending, Stop always false.
type deadTimer struct{}

func (deadTimer) Stop() bool { return false }

// Self implements node.Env.
func (e *Env) Self() ident.ID { return e.id }

// Now implements node.Env.
func (e *Env) Now() time.Duration { return e.net.sim.Now() }

// After implements node.Env. A timer armed while the process is crashed is
// dropped immediately — its callback would be suppressed at fire time anyway
// (a crashed process executes nothing that could outlive a recovery), so
// scheduling it would only queue dead weight in the kernel for the length of
// the downtime. The callback of a live-armed timer is still suppressed if
// the process has crashed by the time it fires: the kernel holds the timer
// as (owner, callback) and asks the network then.
func (e *Env) After(d time.Duration, fn func()) node.Timer {
	if e.net.crashed.Has(e.id) {
		return deadTimer{}
	}
	return e.net.sim.AfterOwned(d, e.id, fn)
}

// Deadlines implements node.Env with the kernel's deadline table, owned by
// the process: a slot set while the process is crashed is dropped at once,
// as After drops a timer, and one that comes due while it is crashed is
// suppressed (des.Deadlines).
func (e *Env) Deadlines(n int, fire func(slot int)) node.Deadlines {
	return e.net.sim.Deadlines(e.id, n, fire)
}

// Send implements node.Env.
func (e *Env) Send(to ident.ID, payload any) { e.net.send(e.id, to, payload) }

// Broadcast implements node.Env: one message per neighbor, each with an
// independent delay (models per-link radio/unicast fan-out). The fan-out
// iterates the sender's precomputed neighbor list — cost proportional to its
// degree, not to n — and is handed to the kernel as a single fan-out node:
// one scheduling operation instead of one queue insertion per neighbor, with
// delivery order identical to per-neighbor sends.
func (e *Env) Broadcast(payload any) {
	n := e.net
	if n.crashed.Has(e.id) {
		return
	}
	recv := n.bcast[:0]
	from := e.id
	for _, to := range n.fanoutFor(from) {
		if delay, ok := n.admit(from, to, payload); ok {
			recv = append(recv, des.Receiver{D: delay, To: to})
		}
	}
	n.sim.Fanout(from, payload, recv)
	n.bcast = recv[:0]
}
