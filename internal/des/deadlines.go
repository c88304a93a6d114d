package des

import (
	"time"

	"asyncfd/internal/ident"
)

// deadlines.go is the kernel's deadline table: many timeouts of one process
// behind one kernel event. A heartbeat monitor keeps one slot per peer,
// pushed back on every heartbeat, plus its own beat and poll; as timers,
// each of those would be a slab event, a handle and a closure.
//
// A slot pushed back by a heartbeat goes from about the least key to about
// the greatest, so the set slots are kept in two parts. The run is a doubly
// linked list of slots in key order: a Set whose key is not below the run's
// last is an unlink and an append. Every other Set goes into the side heap,
// an indexed min-heap, so no Set costs more than O(log n). The table's least
// key is the lesser of the run's head and the side heap's root. The run pays
// only while most Sets join it: a slot moving between the two parts costs a
// sift and an unlink or an append, more than one heap's single sift
// (BenchmarkSetShares counts the shares in the benchmark workloads' cells).
//
// The table's kernel event waits under a key never later than the table's
// least, whose time and slot the table records: a Set moves the event only
// when its time is below that record, and once the recorded slot is taken
// the event takes the table's least key where it surfaces at the kernel
// heap's root (popDue). A push-back reads neither the slab nor the kernel's
// heap.

// A slot's state is its link. In the run, next is the next slot in key
// order, noSlot at the tail, and prev the previous one, noSlot at the head.
// Otherwise next marks the slot clear or in the side heap, where prev is
// its index.
const (
	noSlot    = int32(-1)
	slotClear = int32(-2)
	inHeap    = int32(-3)
)

// link is one slot's state: its key while it is in the run, and its place.
type link struct {
	at         time.Duration
	seq        uint64
	prev, next int32
}

// linked reports whether the slot is in the run.
func (l *link) linked() bool { return l.next >= noSlot }

// table is one deadline table's state, kept in state.tables so that a
// checkpoint copies it with the rest.
type table struct {
	// fire is called with the slot that expired. Checkpoints share it, as
	// they share a timer's callback.
	fire func(slot int)
	// links holds the slots' states as far as the highest slot ever set;
	// the slots past it are clear. A table whose high slots are never set,
	// as a polled monitor's peers are not, keeps (and checkpoints) nothing
	// for them.
	links []link
	// heap is the side heap, by (at, seq); entry.i is the slot.
	heap []entry
	// n is the number of slots; head and tail are the run's ends, noSlot
	// while it is empty.
	n, head, tail int32
	// ev is the table's event in the slab, noEvent while no slot is set.
	// at is the time of the key it is queued under in the kernel's heap,
	// a key never later than the table's least, and slot the slot that
	// held that key: noSlot once it is taken (set anew, cleared or expired),
	// and while it is not, that key is the table's least.
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
	s.tables = append(s.tables, table{fire: fire, n: int32(n), head: noSlot, tail: noSlot, ev: noEvent, slot: noSlot, owner: owner})
	return &Deadlines{s: s, t: int32(len(s.tables) - 1)}
}

// Set arms slot to expire d from now (negative d clamps to zero), replacing
// the time it had if it was set: it draws the sequence number After would
// have drawn, so the slot fires exactly when a timer stopped and armed anew
// would have. While the owner is down, Set clears the slot and draws
// nothing, as the network model arms no timers for a crashed process.
//
// The new key's sequence number is the newest of the table's, so it is
// below another key exactly when its time is earlier: that is all the tail
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
	if k.i == t.slot {
		t.slot = noSlot
	}
	if slot >= len(t.links) {
		t.grow(slot + 1)
	}
	j := int32(-1) // the slot's index in the side heap
	switch l := &t.links[slot]; l.next {
	case slotClear:
		s.pending++
	case inHeap:
		j = l.prev
	default:
		t.unlink(k.i)
	}
	switch {
	case t.tail == noSlot || k.at >= t.links[t.tail].at:
		if j >= 0 {
			t.remove(int(j))
		}
		t.append(k)
	case j >= 0:
		t.fix(int(j), k) // from the side heap into it again: one sift
	default:
		t.links[k.i].next = inHeap
		t.heap = append(t.heap, entry{})
		t.up(len(t.heap)-1, k)
	}
	if setTally != nil {
		setTally[b2i(t.links[k.i].next == inHeap)]++
	}
	switch {
	case t.ev == noEvent:
		s.queueTable(d.t, k)
	case k.at < t.at:
		s.pullForward(d.t, k)
	}
}

// setTally, while a test sets it (export_test.go), counts the Sets of every
// table by the part they join: [0] the run, [1] the side heap. The run pays
// off only while most Sets join it; this is how that share is counted.
var setTally *[2]int64

// Clear disarms slot if it is set. Only the table's last slot abandons its
// event: with slots left, the event's key is still not after the least.
func (d *Deadlines) Clear(slot int) {
	s := d.s
	t := &s.tables[d.t]
	if !t.take(int32(slot)) {
		return
	}
	s.pending--
	if t.head == noSlot && len(t.heap) == 0 {
		s.events[t.ev].stopped = true
		t.ev = noEvent
	}
}

// take clears slot, from the run or the side heap, and reports whether it
// was set.
func (t *table) take(slot int32) bool {
	if slot == t.slot {
		t.slot = noSlot
	}
	if int(slot) >= len(t.links) {
		return false
	}
	switch l := &t.links[slot]; l.next {
	case slotClear:
		return false
	case inHeap:
		t.remove(int(l.prev))
	default:
		t.unlink(slot)
	}
	return true
}

// grow extends links to n slots, the new ones clear, reallocating them at
// twice what they held, at most at one per slot.
func (t *table) grow(n int) {
	if n > cap(t.links) {
		links := make([]link, len(t.links), min(int(t.n), max(n, 2*cap(t.links))))
		copy(links, t.links)
		t.links = links
	}
	old := len(t.links)
	t.links = t.links[:n]
	for k := old; k < n; k++ {
		t.links[k] = link{next: slotClear}
	}
}

// least returns the table's least key, which must exist, with its slot.
func (t *table) least() entry {
	if h := t.head; h != noSlot {
		k := entry{at: t.links[h].at, seq: t.links[h].seq, i: h}
		if len(t.heap) == 0 || k.less(&t.heap[0]) {
			return k
		}
	}
	return t.heap[0]
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
	if t.slot != noSlot {
		return false
	}
	k := t.least()
	e.at, e.seq = k.at, k.seq
	t.slot, t.at = k.i, k.at
	s.down(entry{at: k.at, seq: k.seq, i: i})
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
	if t.head == noSlot && len(t.heap) == 0 {
		s.pop()
		s.release(i)
		t.ev = noEvent
	}
	if fire := t.fire; t.owner == ident.Nil || s.sink.Alive(t.owner) {
		fire(int(slot))
	}
}

// append links k's slot, which links reaches, at the run's end under k's
// key.
func (t *table) append(k entry) {
	t.links[k.i] = link{at: k.at, seq: k.seq, prev: t.tail, next: noSlot}
	if t.tail == noSlot {
		t.head = k.i
	} else {
		t.links[t.tail].next = k.i
	}
	t.tail = k.i
}

// unlink takes slot out of the run and marks it clear.
func (t *table) unlink(slot int32) {
	l := &t.links[slot]
	if l.prev == noSlot {
		t.head = l.next
	} else {
		t.links[l.prev].next = l.next
	}
	if l.next == noSlot {
		t.tail = l.prev
	} else {
		t.links[l.next].prev = l.prev
	}
	l.next = slotClear
}

// fix gives the side-heap entry at index j the key k, for the same slot or
// the one moved there by remove, and restores heap order.
func (t *table) fix(j int, k entry) {
	if j > 0 && k.less(&t.heap[(j-1)/2]) {
		t.up(j, k)
	} else {
		t.down(j, k)
	}
}

// up sifts k from side-heap index j towards the root.
func (t *table) up(j int, k entry) {
	h := t.heap
	for j > 0 {
		p := (j - 1) / 2
		if !k.less(&h[p]) {
			break
		}
		h[j] = h[p]
		t.links[h[j].i].prev = int32(j)
		j = p
	}
	h[j] = k
	t.links[k.i].prev = int32(j)
}

// down places k, a key no earlier than the one it replaces at side-heap
// index j. The entry moved there by remove came from the heap's end, so it
// usually belongs among the leaves: the hole at j is walked down to a leaf
// along the lesser children first, one comparison a level, and k sifted up
// from there, which is at most a step or two (Floyd's bottom-up sift).
func (t *table) down(j int, k entry) {
	h, links := t.heap, t.links
	for c := 2*j + 1; c < len(h); c = 2*j + 1 {
		if r := c + 1; r < len(h) {
			c += b2i(h[r].less(&h[c]))
		}
		h[j] = h[c]
		links[h[j].i].prev = int32(j)
		j = c
	}
	t.up(j, k)
}

// remove takes the slot at side-heap index j out and marks it clear.
func (t *table) remove(j int) {
	n := len(t.heap) - 1
	t.links[t.heap[j].i].next = slotClear
	last := t.heap[n]
	t.heap = t.heap[:n]
	if j < n {
		t.fix(j, last)
	}
}

// copyTables copies the tables src into dst's, reusing each table's storage,
// and returns dst. A table's links are copied as far as they reach, the
// highest slot ever set.
func copyTables(dst, src []table) []table {
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([]table, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for k := range src {
		links, heap := dst[k].links, dst[k].heap
		dst[k] = src[k]
		dst[k].links = append(links[:0], src[k].links...)
		dst[k].heap = append(heap[:0], src[k].heap...)
	}
	return dst
}
