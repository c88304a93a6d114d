// Package tagset implements the counter-stamped process sets at the heart of
// the time-free failure-detector protocol.
//
// The protocol maintains two such sets per process: suspected_i and
// mistake_i. Each element is a pair ⟨id, counter⟩ where counter is the value
// of the originator's logical round counter when the piece of information was
// generated. The counter is a recency tag: when two pieces of information
// about the same process meet, the one with the larger tag wins, and — per
// the paper — a *mistake* (refutation) wins a tie against a *suspicion*.
// These merge laws are what prevents stale suspicions from circulating
// forever in the flooding scheme; Compare is the order they read.
//
// The protocol keeps an id in at most one of the two sets, so a Table stores
// the pair as one slot per id: the id's tag and its State, absent, suspected
// or mistake. An id in both sets cannot be represented. Process ids are small
// dense integers, so the slots are indexed by id and grow as ids are learned.
// Task T2, which runs once per entry of every received QUERY, therefore reads
// one slot per entry and writes it only when the entry changes it, and
// iteration is in ascending id order without sorting. An id can arrive off a
// socket and must not size an allocation: ids at or above Limit are refused
// exactly like invalid ones.
package tagset

import (
	"fmt"
	"slices"

	"asyncfd/internal/ident"
)

// Limit bounds the ids a Table stores: ids in [0, Limit) index its slots
// directly, every other id is refused (Put is a no-op, lookups miss). It
// equals the dense range of node.DenseMap, far above any cluster the harness
// builds, and caps a Table at 256 KiB whatever ids a peer sends.
const Limit ident.ID = 1 << 14

// InRange reports whether a Table can hold id: valid and below Limit.
func InRange(id ident.ID) bool { return uint32(id) < uint32(Limit) }

// Tag is the logical counter stamped on each piece of suspicion/mistake
// information. Tags only grow; they are never compared across processes
// except through the merge rules.
type Tag uint64

// Entry is one ⟨id, tag⟩ pair.
type Entry struct {
	ID  ident.ID
	Tag Tag
}

// String renders the entry like the paper's ⟨p3, 17⟩.
func (e Entry) String() string {
	return fmt.Sprintf("⟨%v, %d⟩", e.ID, uint64(e.Tag))
}

// State says which of the two sets holds an id.
type State uint8

const (
	// Absent: in neither set.
	Absent State = iota
	// Suspected: in suspected_i.
	Suspected
	// Mistake: in mistake_i.
	Mistake
)

// slot is what a Table records about one id.
type slot struct {
	tag   Tag
	state State
}

// Table is the pair suspected_i / mistake_i, one slot per id. The zero value
// is an empty table ready for use. Table is not safe for concurrent use.
type Table struct {
	// slots[id] holds id's tag and state; len(slots) exceeds every id that
	// is not Absent.
	slots []slot
	// count[s] is the number of ids in state s, for s ≠ Absent.
	count [Mistake + 1]int
}

// Get returns what the table records about id: its tag and state. An id never
// put, or not InRange, is Absent.
func (t *Table) Get(id ident.ID) (Tag, State) {
	i := int(id)
	if uint(i) >= uint(len(t.slots)) {
		return 0, Absent
	}
	s := t.slots[i]
	return s.tag, s.state
}

// Compare orders the information ⟨e.ID, e.Tag⟩ in state st against what the
// table records about e.ID, and returns −1, 0 or +1 as it is older, the same
// or fresher. Information is ordered by tag and, at equal tags, a mistake
// above a suspicion: mistakes win ties. Anything is fresher than an Absent
// id, and an id that is not InRange is Absent. Every transition of tasks T1
// and T2 only raises an id in this order, so one read decides each merge
// law: line 22 adopts a suspicion only if Compare says +1, line 33 a mistake
// if it says 0 or +1.
func (t *Table) Compare(e Entry, st State) int {
	i := int(e.ID)
	if uint(i) >= uint(len(t.slots)) {
		return 1
	}
	switch s := t.slots[i]; {
	case s.state == Absent || s.tag < e.Tag:
		return 1
	case s.tag > e.Tag:
		return -1
	default:
		return int(st) - int(s.state)
	}
}

// Put implements the paper's Add(set, ⟨id, counter⟩) for the set st names,
// with the removal from the other set: it records ⟨id, tag⟩ in state st,
// replacing what id held regardless of its tag, and returns the state it
// replaced; st Absent takes id out of both. Callers are responsible for
// recency checks (Compare). Putting an id that is not InRange is a no-op.
func (t *Table) Put(id ident.ID, tag Tag, st State) (prev State) {
	if !InRange(id) {
		return Absent
	}
	if n := int(id) + 1 - len(t.slots); n > 0 {
		// append grows the capacity geometrically, so learning ids 0..n-1
		// one at a time copies O(n) slots.
		t.slots = append(t.slots, make([]slot, n)...)
	}
	prev = t.slots[id].state
	t.count[prev]--
	t.count[st]++
	t.slots[id] = slot{tag: tag, state: st}
	return prev
}

// Clone returns an independent copy.
func (t *Table) Clone() Table {
	return Table{slots: slices.Clone(t.slots), count: t.count}
}

// Entries returns the suspected and the mistake entries, each in ascending id
// order (deterministic order for messages and tests), in one pass.
func (t *Table) Entries() (suspected, mistake []Entry) {
	suspected = make([]Entry, 0, t.count[Suspected])
	mistake = make([]Entry, 0, t.count[Mistake])
	for i, s := range t.slots {
		switch s.state {
		case Suspected:
			suspected = append(suspected, Entry{ID: ident.ID(i), Tag: s.tag})
		case Mistake:
			mistake = append(mistake, Entry{ID: ident.ID(i), Tag: s.tag})
		}
	}
	return suspected, mistake
}

// IDs returns the ids in state st as a bitset.
func (t *Table) IDs(st State) ident.Set {
	var out ident.Set
	for i, s := range t.slots {
		if s.state == st {
			out.Add(ident.ID(i))
		}
	}
	return out
}

// String renders both sets with entries in ascending id order.
func (t *Table) String() string {
	suspected, mistake := t.Entries()
	return fmt.Sprintf("suspected %v mistake %v", suspected, mistake)
}
