// Package deadline is the ordered list behind a deadline table: the keys of
// n numbered timeouts of one process, a heartbeat monitor's one per peer,
// its beat and its poll, kept in (at, seq) order so that the least key is
// the list's head. Both runtimes keep their tables in it: the simulator
// (internal/des) behind one kernel event, the TCP runtime (internal/tcpnet)
// behind one time.Timer. Neither the list nor its keys know a clock; the
// runtime draws the times and sequence numbers.
//
// A list is doubly linked through its slots. A Link places its slot after
// every key whose time is not later than its own, which is all there is to
// compare, since a new key's sequence number is always the list's newest: a
// key not below the tail links at the tail and a key below the head at the
// head, each at once, and any other after a walk back from the tail. A slot
// pushed back by a heartbeat goes from about the least key to about the
// greatest, so a push-back is a Take and a Link at the tail, O(1).
package deadline

import "time"

// None is no slot: the head and the tail of an empty list.
const None = int32(-1)

// unset is a clear slot's next.
const unset = int32(-2)

// link is one slot's state: its key while it is set, and its place. While
// the slot is set, next is the next slot in key order, None at the tail, and
// prev the previous one, None at the head; next is unset while it is clear.
type link struct {
	at         time.Duration
	seq        uint64
	prev, next int32
}

// List is the set slots of a table of n, in key order. A List is a value:
// copying one shares its storage, and Copy makes an independent copy.
type List struct {
	// links holds the slots' states as far as the highest slot ever set;
	// the slots past it are clear. A table whose high slots are never set,
	// as a polled monitor's peers are not, keeps (and copies) nothing for
	// them.
	links []link
	// n is the number of slots; head and tail are the list's ends.
	n, head, tail int32
}

// NewList returns an empty list of n slots.
func NewList(n int) List { return List{n: int32(n), head: None, tail: None} }

// Head returns the slot that holds the least key, None if no slot is set.
func (l *List) Head() int32 { return l.head }

// Key returns the key of slot, which is set.
func (l *List) Key(slot int32) (at time.Duration, seq uint64) {
	return l.links[slot].at, l.links[slot].seq
}

// Link sets slot, which is clear, to the key (at, seq), whose seq is newer
// than every key in the list: it links the slot after the last key whose
// time is not later than at, growing the list to hold it, and returns how
// many keys it walked past from the tail to find that key. A key below the
// head walks past none: it links at the head at once.
func (l *List) Link(slot int32, at time.Duration, seq uint64) (walked int) {
	if int(slot) >= len(l.links) {
		l.grow(int(slot) + 1)
	}
	prev := l.tail
	if prev != None && at < l.links[prev].at {
		if at < l.links[l.head].at {
			prev = None
		} else {
			for l.links[prev].at > at { // stops at the head at the latest
				prev = l.links[prev].prev
				walked++
			}
		}
	}
	next := l.head
	if prev != None {
		next = l.links[prev].next
		l.links[prev].next = slot
	} else {
		l.head = slot
	}
	if next != None {
		l.links[next].prev = slot
	} else {
		l.tail = slot
	}
	l.links[slot] = link{at: at, seq: seq, prev: prev, next: next}
	return walked
}

// LinkAtTail is Link for the push-back, the key not below the tail's, which
// walks past nothing: it links slot at the tail and reports true if the list
// is not empty, already holds slot's storage and (at, seq) belongs at its
// tail, and otherwise does nothing and reports false. It inlines into its
// callers, which Link, with its walk, does not: a caller on a hot path tries
// it first.
func (l *List) LinkAtTail(slot int32, at time.Duration, seq uint64) bool {
	tail := l.tail
	if tail == None || int(slot) >= len(l.links) || at < l.links[tail].at {
		return false
	}
	l.links[tail].next = slot
	l.tail = slot
	l.links[slot] = link{at: at, seq: seq, prev: tail, next: None}
	return true
}

// Take clears slot and reports whether it was set; None never is.
func (l *List) Take(slot int32) bool {
	if uint(slot) >= uint(len(l.links)) || l.links[slot].next == unset {
		return false
	}
	k := &l.links[slot]
	if k.prev == None {
		l.head = k.next
	} else {
		l.links[k.prev].next = k.next
	}
	if k.next == None {
		l.tail = k.prev
	} else {
		l.links[k.next].prev = k.prev
	}
	k.next = unset
	return true
}

// grow extends links to n slots, the new ones clear, reallocating them at
// twice what they held, at most at one per slot.
func (l *List) grow(n int) {
	if n > cap(l.links) {
		links := make([]link, len(l.links), min(int(l.n), max(n, 2*cap(l.links))))
		copy(links, l.links)
		l.links = links
	}
	old := len(l.links)
	l.links = l.links[:n]
	for k := old; k < n; k++ {
		l.links[k] = link{next: unset}
	}
}

// Copy makes l a copy of src, reusing l's storage. The links are copied as
// far as they reach, the highest slot ever set.
func (l *List) Copy(src *List) {
	links := l.links
	*l = *src
	l.links = append(links[:0], src.links...)
}
