package des

// snapshot.go is the kernel's checkpoint/fork primitive. A Snapshot captures
// the complete observable state of a Simulator — virtual clock, sequence
// counter, the event slab (every in-flight message as data: endpoints,
// payload and per-fan-out item storage; every timer with its pending re-arm,
// if any), the free list, the ready bucket and front slot, the timing queue,
// and the random stream position — so a warmed simulation can be rolled back
// and re-run, or cloned outright.
//
// Two verbs, two use cases:
//
//   - Snapshot/Restore roll the SAME Simulator back in place. This is the
//     form the experiment layer uses: timer callbacks capture the live
//     component objects (detectors), and messages are delivered to the one
//     registered Sink, so replication must rewind the kernel those are bound
//     to rather than build a second one. A Snapshot is immutable once taken —
//     Restore deep-copies out of it — so one warmed checkpoint serves any
//     number of replicates.
//
//   - Fork deep-copies into a NEW Simulator. Timer callbacks, message
//     payloads and the Sink are shared by reference, so a fork only makes
//     sense when those touch no state outside the kernel (pure-kernel tests,
//     microbenchmarks) — which is exactly what the clone-invariant tests
//     exercise: mutating the child must never perturb the parent's slab,
//     queue, or free list.
//
// Determinism contract: after Restore, the simulator replays byte-identically
// — same fire order, same Now/Steps/Pending trajectory, same Rand() draws —
// until the caller diverges it (Reseed, or different scheduling). The random
// stream is captured as (seed, draw count) and replayed by burning the source
// forward, which is exact because every top-level Rand() draw maps to a fixed
// number of source calls.
//
// Caveat: Timer handles created AFTER a snapshot was taken must not be used
// — stopped or Reset — after restoring it. Restore rewinds slot generations,
// so such a handle can alias an unrelated event scheduled by the rolled-back
// run. Handles that existed when the snapshot was taken remain valid across
// Restore, and a Reset made after the snapshot is rolled back with the rest:
// the re-arm lives on the event, not in the handle.

import (
	"math/rand"
	"time"
)

// countingSource wraps the kernel's random source and counts draws, so a
// snapshot can record the stream position and Restore can replay to it. Both
// Int63 and Uint64 advance the underlying generator by exactly one step, so
// a single counter suffices whatever mix of draws the simulation makes.
//
// burnLeft defers a restored stream's replay until the stream is actually
// read: draws is the logical position, and the physical generator lags it by
// burnLeft steps, caught up on first use. A restored replicate that
// immediately Reseeds — the warm-fork path — therefore never pays for
// replaying the warmup's draws at all.
type countingSource struct {
	src      rand.Source64
	draws    uint64
	burnLeft uint64
}

// catchUp advances the physical generator to the logical position.
func (c *countingSource) catchUp() {
	for ; c.burnLeft > 0; c.burnLeft-- {
		c.src.Uint64()
	}
}

func (c *countingSource) Int63() int64 { c.catchUp(); c.draws++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.catchUp(); c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.draws = 0; c.burnLeft = 0 }

// setSource rebinds the simulator's random stream to a fresh source seeded
// with seed, at draw position zero.
func (s *Simulator) setSource(seed int64) {
	s.seed = seed
	s.src = &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	s.rng = rand.New(s.src)
}

// resumeSource rebinds the random stream to seed at logical draw position
// pos, deferring the physical replay until the stream is next read.
func (s *Simulator) resumeSource(seed int64, pos uint64) {
	s.setSource(seed)
	s.src.draws = pos
	s.src.burnLeft = pos
}

// Reseed replaces the simulator's random stream with a fresh one seeded with
// seed. This is how a restored replicate diverges from its siblings: restore
// the warmed checkpoint, then give each replicate its own stride seed —
// exactly the strided-seed family semantics, applied at the fork point.
func (s *Simulator) Reseed(seed int64) { s.setSource(seed) }

// Snapshot is an immutable checkpoint of a Simulator. Take one with
// Simulator.Snapshot, roll back to it with Simulator.Restore (any number of
// times), or spawn an independent kernel with Simulator.Fork.
type Snapshot struct {
	now      time.Duration
	seq      uint64
	stepped  uint64
	pending  int
	halted   bool
	seed     int64
	draws    uint64
	events   []event
	free     []int32
	fifo     []int32
	fifoHead int
	front    int32
	queue    eventQueue
}

// cloneEvents deep-copies an event slab. The per-event items slices must be
// copied too: the live kernel recycles them through its itemFree pool, so a
// shallow copy would alias storage the next fan-out overwrites.
func cloneEvents(src []event) []event {
	out := make([]event, len(src))
	copy(out, src)
	for k := range out {
		if out[k].items != nil {
			items := make([]fanItem, len(out[k].items))
			copy(items, out[k].items)
			out[k].items = items
		}
	}
	return out
}

// Snapshot captures the simulator's complete state. The checkpoint shares
// nothing mutable with the live kernel: the slab (with fan-out item storage),
// free list, ready bucket and timing queue are all deep copies.
func (s *Simulator) Snapshot() *Snapshot {
	return &Snapshot{
		now:      s.now,
		seq:      s.seq,
		stepped:  s.stepped,
		pending:  s.pending,
		halted:   s.halted,
		seed:     s.seed,
		draws:    s.src.draws,
		events:   cloneEvents(s.events),
		free:     append([]int32(nil), s.free...),
		fifo:     append([]int32(nil), s.fifo...),
		fifoHead: s.fifoHead,
		front:    s.front,
		queue:    s.queue.clone(s),
	}
}

// restoreEvents copies the checkpointed slab into the live one, reusing the
// live slab's array and its per-event item storage where capacity allows:
// Restore runs once per replicate, and reallocating the arena every time
// dominated fork cost at large n. Reuse is safe because a non-nil items
// slice is owned by exactly one event header — release returns it to the
// itemFree pool only after nilling the header.
func (s *Simulator) restoreEvents(src []event) {
	events := s.events
	if cap(events) < len(src) {
		events = make([]event, len(src))
	} else {
		events = events[:len(src)]
	}
	for k := range src {
		reuse := events[k].items
		events[k] = src[k]
		if n := len(src[k].items); n > 0 {
			if cap(reuse) < n {
				reuse = make([]fanItem, n)
			}
			reuse = reuse[:n]
			copy(reuse, src[k].items)
			events[k].items = reuse
		} else {
			events[k].items = nil
		}
	}
	s.events = events
}

// Restore rolls the simulator back to the checkpoint, in place. Everything
// is deep-copied out of the snapshot, so the same checkpoint can be restored
// repeatedly; the itemFree pool is left alone (it holds spare capacity only,
// never semantics). The random stream resumes at the captured position, with
// the physical replay deferred until the stream is next read — so a restore
// immediately followed by Reseed pays nothing for the checkpoint's draws.
func (s *Simulator) Restore(snap *Snapshot) {
	s.now = snap.now
	s.seq = snap.seq
	s.stepped = snap.stepped
	s.pending = snap.pending
	s.halted = snap.halted
	s.restoreEvents(snap.events)
	s.free = append(s.free[:0], snap.free...)
	s.fifo = append(s.fifo[:0], snap.fifo...)
	s.fifoHead = snap.fifoHead
	s.front = snap.front
	s.queue = snap.queue.clone(s)
	s.resumeSource(snap.seed, snap.draws)
}

// Fork returns a new, independent Simulator that is a deep copy of this one:
// same clock, same pending events, same random stream position, same
// timing structure. Pending callbacks, payloads and the sink are shared by
// reference (closures cannot be deep copied), so Fork is for kernel-level
// workloads whose events touch only kernel state; component stacks use
// Snapshot/Restore instead. Mutating either simulator never perturbs the
// other.
func (s *Simulator) Fork() *Simulator {
	c := &Simulator{
		now:      s.now,
		seq:      s.seq,
		stepped:  s.stepped,
		pending:  s.pending,
		halted:   s.halted,
		sink:     s.sink,
		events:   cloneEvents(s.events),
		free:     append([]int32(nil), s.free...),
		fifo:     append([]int32(nil), s.fifo...),
		fifoHead: s.fifoHead,
		front:    s.front,
	}
	c.queue = s.queue.clone(c)
	c.resumeSource(s.seed, s.src.draws)
	return c
}
