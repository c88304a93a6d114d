package des

import (
	"time"

	"asyncfd/internal/deadline"
	"asyncfd/internal/ident"
)

// deadlines.go is the kernel's deadline table: many timeouts of one process
// behind one kernel event. A heartbeat monitor keeps one slot per peer,
// pushed back on every heartbeat, plus its own beat and poll; as timers,
// each of those would be a slab event, a handle and a closure.
//
// A table keeps its set slots in a deadline.List, in (at, seq) order, so its
// least key is the list's head and a push-back is an unlink and a link at
// the tail, O(1); a key that lands further back pays one step per later key
// it walks past (BenchmarkSetShares counts the walks in the benchmark
// workloads' cells). The kernel's part is the rest: the sequence numbers,
// the owner's liveness and the event that rides the head.
//
// The table's kernel event waits under a key never later than the table's
// least, whose time and slot the table records: a Set moves the event only
// when its time is below that record, and once the recorded slot is taken
// the event takes the table's least key where it surfaces at the kernel
// heap's root (popDue). A push-back reads neither the slab nor the kernel's
// heap.

// table is one deadline table's state, kept in state.tables so that a
// checkpoint copies it with the rest.
type table struct {
	// fire is called with the slot that expired. Checkpoints share it, as
	// they share a timer's callback.
	fire func(slot int)
	// list holds the set slots' keys.
	list deadline.List
	// ev is the table's event in the slab, noEvent while no slot is set.
	// at is the time of the key it is queued under in the kernel's heap,
	// a key never later than the table's least, and slot the slot that
	// held that key: deadline.None once it is taken (set anew, cleared or
	// expired), and while it is not, that key is the table's least.
	ev, slot int32
	at       time.Duration
	owner    ident.ID
}

// Deadlines is a handle to a deadline table: n timeouts of one owner, each a
// slot that is set or clear. Set and Clear behave exactly like Stop and
// After on a timer per slot, and a table costs one kernel event however many
// of its slots are set. Like a Timer, a handle made after a checkpoint was
// taken must not be used after restoring it.
type Deadlines struct {
	s *Simulator
	t int32
}

// Deadlines returns a table of n clear slots owned by owner: an expiring
// slot calls fire with its index if owner is alive then, and is one step
// either way (ident.Nil: nobody, always alive).
func (s *Simulator) Deadlines(owner ident.ID, n int, fire func(slot int)) *Deadlines {
	s.tables = append(s.tables, table{fire: fire, list: deadline.NewList(n), ev: noEvent, slot: deadline.None, owner: owner})
	return &Deadlines{s: s, t: int32(len(s.tables) - 1)}
}

// Set arms slot to expire d from now (negative d clamps to zero), replacing
// the time it had if it was set: it draws the sequence number After would
// have drawn, so the slot fires exactly when a timer stopped and armed anew
// would have. While the owner is down, Set clears the slot and draws
// nothing, as the network model arms no timers for a crashed process.
//
// The new key's sequence number is the newest of the table's, so it is
// below another key exactly when its time is earlier: that is all the list
// and the event's recorded key are compared on.
func (d *Deadlines) Set(slot int, after time.Duration) {
	s := d.s
	t := &s.tables[d.t]
	if t.owner != ident.Nil && !s.sink.Alive(t.owner) {
		d.Clear(slot)
		return
	}
	k := entry{at: s.clampAt(after), seq: s.seq, i: int32(slot)}
	s.seq++
	if k.i == t.slot { // t.take written out: as a call it does not inline
		t.slot = deadline.None
	}
	if !t.list.Take(k.i) {
		s.pending++
	}
	walked := 0
	if !t.list.LinkAtTail(k.i, k.at, k.seq) {
		walked = t.list.Link(k.i, k.at, k.seq)
	}
	if setTally != nil {
		setTally(walked)
	}
	switch {
	case t.ev == noEvent:
		s.queueTable(d.t, k)
	case k.at < t.at:
		s.pullForward(d.t, k)
	}
}

// setTally, while a test sets it (export_test.go), is called by every Set
// with the number of slots it walked past. A push-back is O(1) only while
// walks are short; this is how they are counted.
var setTally func(walked int)

// Clear disarms slot if it is set. Only the table's last slot abandons its
// event: with slots left, the event's key is still not after the least.
func (d *Deadlines) Clear(slot int) {
	s := d.s
	t := &s.tables[d.t]
	if !t.take(int32(slot)) {
		return
	}
	s.pending--
	if t.list.Head() == deadline.None {
		s.events[t.ev].stopped = true
		t.ev = noEvent
	}
}

// take clears slot and reports whether it was set.
func (t *table) take(slot int32) bool {
	if slot == t.slot {
		t.slot = deadline.None
	}
	return t.list.Take(slot)
}

// queueTable queues a new event for table ti under k's key.
func (s *Simulator) queueTable(ti int32, k entry) {
	i := s.alloc()
	e := &s.events[i]
	e.kind, e.from, e.to = evTable, ident.ID(ti), s.tables[ti].owner
	e.at, e.seq = k.at, k.seq
	s.push(i)
	t := &s.tables[ti]
	t.ev, t.slot, t.at = i, k.i, k.at
}

// pullForward moves table ti's event to k's key, below the one it is queued
// under: in place when it is the kernel heap's root, which it stays, and
// otherwise by abandoning it where it waits (reclaimed when it surfaces) for
// a new event.
func (s *Simulator) pullForward(ti int32, k entry) {
	t := &s.tables[ti]
	if s.heap[0].i != t.ev {
		s.events[t.ev].stopped = true
		s.queueTable(ti, k)
		return
	}
	e := &s.events[t.ev]
	e.at, e.seq = k.at, k.seq
	s.heap[0].at, s.heap[0].seq = k.at, k.seq
	t.slot, t.at = k.i, k.at
}

// settle gives the live table event i, at the kernel heap's root, its
// table's least key if the slot that held the key it is queued under has
// been taken since, sifting it down in place, and reports whether it did.
func (s *Simulator) settle(i int32) bool {
	e := &s.events[i]
	t := &s.tables[e.from]
	if t.slot != deadline.None {
		return false
	}
	head := t.list.Head()
	e.at, e.seq = t.list.Key(head)
	t.slot, t.at = head, e.at
	s.down(entry{at: e.at, seq: e.seq, i: i})
	return true
}

// expire fires the least slot of the table whose event i is the heap's root,
// live and settled — the slot that holds the key the event is queued under.
// The slot is cleared first, and the event, left at the root under the key
// just fired, takes the next least key when popDue next looks at it
// (settle) — or is reclaimed at once if no slot is left — so that a
// callback which sets a slot again, as a monitor's beat does, moves nothing.
func (s *Simulator) expire(i int32) {
	e := &s.events[i]
	t := &s.tables[e.from]
	slot := t.slot
	t.take(slot)
	if t.list.Head() == deadline.None {
		s.pop()
		s.release(i)
		t.ev = noEvent
	}
	if fire := t.fire; t.owner == ident.Nil || s.sink.Alive(t.owner) {
		fire(int(slot))
	}
}

// copyTables copies the tables src into dst's, reusing each table's storage,
// and returns dst.
func copyTables(dst, src []table) []table {
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([]table, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for k := range src {
		list := dst[k].list
		dst[k] = src[k]
		list.Copy(&src[k].list)
		dst[k].list = list
	}
	return dst
}
