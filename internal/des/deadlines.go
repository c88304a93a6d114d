package des

import (
	"math"
	"time"

	"asyncfd/internal/ident"
)

// deadlines.go is the kernel's deadline table: many timeouts of one process
// behind one kernel event. A heartbeat monitor keeps one slot per peer,
// pushed back on every heartbeat, plus its own beat and poll; as timers,
// each of those would be a slab event, a handle and a closure.

// table is one deadline table's state, kept in state.tables so that a
// checkpoint copies it with the rest: the set slots in an indexed min-heap
// of their (at, seq) keys, and the kernel event that rides the least one.
type table struct {
	// fire is called with the slot that expired. Checkpoints share it, as
	// they share a timer's callback.
	fire func(slot int)
	// heap holds the set slots, a min-heap by (at, seq); entry.i is the
	// slot. pos[slot] is the slot's index in heap, or -1 while it is clear.
	heap []entry
	pos  []int32
	// ev is the table's event in the slab: queued in the kernel's heap under
	// a key never later than heap[0]'s, and re-keyed to it when it surfaces
	// (event.rekey). noEvent while no slot is set.
	ev    int32
	owner ident.ID
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
	pos := make([]int32, n)
	for k := range pos {
		pos[k] = -1
	}
	s.tables = append(s.tables, table{fire: fire, heap: make([]entry, 0, n), pos: pos, ev: noEvent, owner: owner})
	return &Deadlines{s: s, t: int32(len(s.tables) - 1)}
}

// Set arms slot to expire d from now (negative d clamps to zero), replacing
// the time it had if it was set: it draws the sequence number After would
// have drawn, so the slot fires exactly when a timer stopped and armed anew
// would have. While the owner is down, Set clears the slot and draws
// nothing, as the network model arms no timers for a crashed process.
func (d *Deadlines) Set(slot int, after time.Duration) {
	s := d.s
	t := &s.tables[d.t]
	if t.owner != ident.Nil && !s.sink.Alive(t.owner) {
		d.Clear(slot)
		return
	}
	lead := t.lead()
	k := entry{at: s.clampAt(after), seq: s.seq, i: int32(slot)}
	s.seq++
	if j := t.pos[slot]; j >= 0 {
		t.fix(int(j), k)
	} else {
		s.pending++
		t.heap = append(t.heap, k)
		t.up(len(t.heap)-1, k)
	}
	if t.lead() != lead {
		s.follow(d.t)
	}
}

// Clear disarms slot if it is set.
func (d *Deadlines) Clear(slot int) {
	s := d.s
	t := &s.tables[d.t]
	j := t.pos[slot]
	if j < 0 {
		return
	}
	s.pending--
	lead := t.lead()
	t.remove(int(j))
	if t.lead() != lead {
		s.follow(d.t)
	}
}

// lead is the sequence number of the table's least key, which names it:
// a slot's time changes only with a sequence number drawn afresh.
// math.MaxUint64 stands for an empty table.
func (t *table) lead() uint64 {
	if len(t.heap) == 0 {
		return math.MaxUint64
	}
	return t.heap[0].seq
}

// follow puts table ti's event under the table's new least key. A key at or
// after the one the event is queued under is recorded and applied where the
// event surfaces; an earlier one moves the event at once: in place when it
// is the kernel heap's root, which it stays, and otherwise by abandoning it
// where it waits (reclaimed when it surfaces) for a new event. An empty
// table abandons its event.
func (s *Simulator) follow(ti int32) {
	t := &s.tables[ti]
	if len(t.heap) == 0 {
		if t.ev != noEvent {
			s.events[t.ev].stopped = true
			t.ev = noEvent
		}
		return
	}
	least := t.heap[0]
	if t.ev == noEvent {
		t.ev = s.queueTable(ti, least)
		return
	}
	e := &s.events[t.ev]
	switch {
	case !least.less(&entry{at: e.at, seq: e.seq}):
		e.newAt, e.newSeq = least.at, least.seq
		e.rekey = least.at != e.at || least.seq != e.seq
	case s.heap[0].i == t.ev:
		e.at, e.seq, e.rekey = least.at, least.seq, false
		s.heap[0].at, s.heap[0].seq = least.at, least.seq
	default:
		e.stopped = true
		t.ev = s.queueTable(ti, least)
	}
}

// queueTable queues a new event for table ti under key k and returns it.
func (s *Simulator) queueTable(ti int32, k entry) int32 {
	i := s.alloc()
	e := &s.events[i]
	e.kind, e.from, e.to = evTable, ident.ID(ti), s.tables[ti].owner
	e.at, e.seq = k.at, k.seq
	s.push(i)
	return i
}

// expire fires the least slot of the table whose event i is the heap's root
// and live: the slot is cleared first, and the event, left at the root, is
// marked to be re-keyed to the next least key — or reclaimed at once if no
// slot is left — so that a callback which sets a slot again, as a
// monitor's beat does, re-keys it where it stands.
func (s *Simulator) expire(i int32) {
	e := &s.events[i]
	t := &s.tables[e.from]
	slot := t.heap[0].i
	t.remove(0)
	if len(t.heap) == 0 {
		s.pop()
		s.release(i)
		t.ev = noEvent
	} else {
		e.newAt, e.newSeq, e.rekey = t.heap[0].at, t.heap[0].seq, true
	}
	if fire := t.fire; t.owner == ident.Nil || s.sink.Alive(t.owner) {
		fire(int(slot))
	}
}

// fix gives the entry at index j the key k, for the same slot or the one
// moved there by remove, and restores heap order.
func (t *table) fix(j int, k entry) {
	if j > 0 && k.less(&t.heap[(j-1)/2]) {
		t.up(j, k)
	} else {
		t.down(j, k)
	}
}

// up sifts k from index j towards the root.
func (t *table) up(j int, k entry) {
	h := t.heap
	for j > 0 {
		p := (j - 1) / 2
		if !k.less(&h[p]) {
			break
		}
		h[j] = h[p]
		t.pos[h[j].i] = int32(j)
		j = p
	}
	h[j] = k
	t.pos[k.i] = int32(j)
}

// down places k, a key no earlier than the one it replaces at index j. A
// slot pushed back usually belongs among the leaves — a heartbeat moves its
// sender's deadline from about the least to about the greatest — so the hole
// at j is walked down to a leaf along the lesser children first, one
// comparison a level, and k sifted up from there, which is at most a step or
// two (Floyd's bottom-up sift).
func (t *table) down(j int, k entry) {
	h, pos := t.heap, t.pos
	for c := 2*j + 1; c < len(h); c = 2*j + 1 {
		if r := c + 1; r < len(h) {
			c += b2i(h[r].less(&h[c]))
		}
		h[j] = h[c]
		pos[h[j].i] = int32(j)
		j = c
	}
	t.up(j, k)
}

// remove clears the slot at heap index j.
func (t *table) remove(j int) {
	n := len(t.heap) - 1
	t.pos[t.heap[j].i] = -1
	last := t.heap[n]
	t.heap = t.heap[:n]
	if j < n {
		t.fix(j, last)
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
		heap, pos := dst[k].heap, dst[k].pos
		dst[k] = src[k]
		dst[k].heap = append(heap[:0], src[k].heap...)
		dst[k].pos = append(pos[:0], src[k].pos...)
	}
	return dst
}
