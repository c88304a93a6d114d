package des

// snapshot.go is the kernel's checkpoint primitive. A Snapshot is a copy of
// the Simulator's state value (des.go) — nothing else about a kernel changes
// during a run — so a warmed simulation can be rolled back and re-run.
//
// Snapshot/Restore roll the SAME Simulator back in place. This is the form
// the experiment layer needs: timer callbacks capture the live component
// objects (detectors), and messages are delivered to the one registered Sink,
// so replication must rewind the kernel those are bound to rather than build a
// second one. A Snapshot is immutable once taken — Restore copies out of it —
// so one warmed checkpoint serves any number of replicates. Both are
// state.copyTo, which assigns the whole value and then gives the destination
// its own storage for every field that refers to some: a field added to state
// cannot be left out of one direction.
//
// Determinism contract: after Restore, the simulator replays byte-identically
// — same fire order, same Now/Steps/Pending trajectory, same Rand() draws —
// until the caller diverges it (Reseed, or different scheduling). The random
// stream is captured as (seed, draw count) and replayed by burning the source
// forward, which is exact because every top-level Rand() draw maps to a fixed
// number of source calls.
//
// Caveat: Timer and Deadlines handles created AFTER a snapshot was taken must
// not be used — stopped, set or cleared — after restoring it. Restore rewinds
// slot generations and the table list, so such a handle can alias an
// unrelated event or table of the rolled-back run. Handles that existed when
// the snapshot was taken remain valid across Restore, and a Set or Clear made
// after the snapshot is rolled back with the rest: a table's slots live in
// the kernel's state, not in the handle.

import "math/rand"

// countingSource is the kernel's random stream: a generator, the seed it was
// last seeded with and the number of draws made since, which together are the
// stream's position. Both Int63 and Uint64 advance the generator by exactly
// one step, so a single counter suffices whatever mix of draws the simulation
// makes.
//
// burnLeft defers a restored stream's replay until the stream is actually
// read: draws is the logical position, and the generator lags it by burnLeft
// steps, caught up on first use. A restored replicate that immediately
// Reseeds — the warm-fork path — therefore never pays for replaying the
// warmup's draws at all. A checkpoint holds the position only: gen is nil.
type countingSource struct {
	gen      rand.Source64
	seed     int64
	draws    uint64
	burnLeft uint64
}

// catchUp advances the generator to the logical position.
func (c *countingSource) catchUp() {
	for ; c.burnLeft > 0; c.burnLeft-- {
		c.gen.Uint64()
	}
}

func (c *countingSource) Int63() int64 { c.catchUp(); c.draws++; return c.gen.Int63() }

func (c *countingSource) Uint64() uint64 { c.catchUp(); c.draws++; return c.gen.Uint64() }

func (c *countingSource) Seed(seed int64) {
	c.gen.Seed(seed)
	c.seed, c.draws, c.burnLeft = seed, 0, 0
}

// rebind puts a copied stream on gen, the copy's own generator (nil for a
// checkpoint), seeded afresh and owing the whole replay.
func (c *countingSource) rebind(gen rand.Source64) {
	if gen != nil {
		gen.Seed(c.seed)
	}
	c.gen, c.burnLeft = gen, c.draws
}

// Reseed replaces the simulator's random stream with a fresh one seeded with
// seed. This is how a restored replicate diverges from its siblings: restore
// the warmed checkpoint, then give each replicate its own stride seed —
// exactly the strided-seed family semantics, applied at the fork point.
func (s *Simulator) Reseed(seed int64) { s.stream.Seed(seed) }

// Snapshot is an immutable checkpoint of a Simulator. Take one with
// Simulator.Snapshot and roll back to it with Simulator.Restore, any number
// of times.
type Snapshot struct{ st state }

// copyTo makes dst a copy of s that shares no mutable storage with it, reusing
// what dst already has: the slab's array, the fan-out side table and its item
// storage (a Restore runs once per replicate, and reallocating the arena every
// time dominated fork cost at large n), the free list, the deadline tables and
// the heap.
func (s *state) copyTo(dst *state) {
	events, fans, free, tables, heap, gen := dst.events, dst.fans, dst.free, dst.tables, dst.heap, dst.stream.gen
	*dst = *s
	dst.events = append(events[:0], s.events...)
	dst.fans = copyFans(fans, s.fans)
	dst.free = append(free[:0], s.free...)
	dst.tables = copyTables(tables, s.tables)
	dst.heap = append(heap[:0], s.heap...)
	dst.stream.rebind(gen)
}

// copyFans copies the side table src into dst's storage where capacity
// allows and returns it. The item slices are copied too — the live kernel
// recycles them through its itemFree pool, so a shallow copy would alias
// storage the next fan-out overwrites — into the items dst's entries already
// hold. Reuse is safe because a non-nil items slice is owned by exactly one
// entry: release returns it to the itemFree pool only after emptying the
// entry.
func copyFans(dst, src []fan) []fan {
	if cap(dst) < len(src) {
		dst = make([]fan, len(src))
	}
	dst = dst[:len(src)]
	for k := range src {
		reuse := dst[k].items
		dst[k] = src[k]
		if n := len(src[k].items); n > 0 {
			if cap(reuse) < n {
				reuse = make([]fanItem, n)
			}
			reuse = reuse[:n]
			copy(reuse, src[k].items)
			dst[k].items = reuse
		} else {
			dst[k].items = nil
		}
	}
	return dst
}

// Snapshot captures the simulator's complete state.
func (s *Simulator) Snapshot() *Snapshot {
	snap := new(Snapshot)
	s.state.copyTo(&snap.st)
	return snap
}

// Restore rolls the simulator back to the checkpoint, in place. The same
// checkpoint can be restored repeatedly; the itemFree pool is left alone. The
// random stream resumes at the captured position, with the replay deferred
// until the stream is next read — so a restore immediately followed by Reseed
// pays nothing for the checkpoint's draws.
func (s *Simulator) Restore(snap *Snapshot) { snap.st.copyTo(&s.state) }
