// Package tagset implements the counter-stamped process sets at the heart of
// the time-free failure-detector protocol.
//
// The protocol maintains two such sets per process: suspected_i and
// mistake_i. Each element is a pair ⟨id, counter⟩ where counter is the value
// of the originator's logical round counter when the piece of information was
// generated. The counter is a recency tag: when two pieces of information
// about the same process meet, the one with the larger tag wins, and — per
// the paper — a *mistake* (refutation) wins a tie against a *suspicion*.
// These merge laws (MergeSuspicion, MergeMistake) are what prevents stale
// suspicions from circulating forever in the flooding scheme.
//
// Process ids are small dense integers, so a Set is storage indexed by id —
// one tag per id plus a presence bit — that grows as ids are learned. Task
// T2, which runs once per entry of every received QUERY, therefore never
// hashes, and iteration is in ascending id order without sorting. An id can
// arrive off a socket and must not size an allocation: ids at or above Limit
// are refused exactly like invalid ones.
package tagset

import (
	"fmt"
	"slices"
	"strings"

	"asyncfd/internal/ident"
)

// Limit bounds the ids a Set stores: ids in [0, Limit) index its storage
// directly, every other id is refused (Add is a no-op, lookups miss). It
// equals the dense range of node.DenseMap, far above any cluster the harness
// builds, and caps a Set at 130 KiB whatever ids a peer sends.
const Limit ident.ID = 1 << 14

// InRange reports whether a Set can hold id: valid and below Limit.
func InRange(id ident.ID) bool { return uint32(id) < uint32(Limit) }

// Tag is the logical counter stamped on each piece of suspicion/mistake
// information. Tags only grow; they are never compared across processes
// except through the merge rules below.
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

// Set is a set of ⟨id, tag⟩ pairs with at most one entry per id. The zero
// value is an empty set ready for use. Set is not safe for concurrent use.
type Set struct {
	// tags[id] is id's tag while present holds id and garbage otherwise;
	// len(tags) exceeds every id present.
	tags    []Tag
	present ident.Set
}

// New returns an empty set. Equivalent to the zero value; provided for
// symmetry with sized constructors elsewhere.
func New() *Set { return &Set{} }

// Add implements the paper's Add(set, ⟨id, counter⟩): it inserts ⟨id, tag⟩,
// replacing any existing entry for id regardless of its tag. Callers are
// responsible for recency checks; MergeSuspicion and MergeMistake are the
// guarded variants task T2 uses. Adding an id that is not InRange is a no-op.
func (s *Set) Add(id ident.ID, tag Tag) {
	if !InRange(id) {
		return
	}
	if i := int(id); i >= len(s.tags) {
		// The capacity grows geometrically, so learning ids 0..n-1 one at a
		// time copies O(n) tags.
		s.tags = slices.Grow(s.tags, i+1-len(s.tags))[:i+1]
	}
	s.tags[id] = tag
	s.present.Add(id)
}

// Remove deletes the entry for id, reporting whether one was present.
func (s *Set) Remove(id ident.ID) bool {
	if !s.present.Has(id) {
		return false
	}
	s.present.Remove(id)
	return true
}

// Get returns the tag associated with id.
func (s *Set) Get(id ident.ID) (Tag, bool) {
	if !s.present.Has(id) {
		return 0, false
	}
	return s.tags[id], true
}

// Has reports whether id has an entry.
func (s *Set) Has(id ident.ID) bool { return s.present.Has(id) }

// Len returns the number of entries.
func (s *Set) Len() int { return s.present.Len() }

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return &Set{tags: slices.Clone(s.tags), present: s.present.Clone()}
}

// Entries returns the entries in ascending id order (deterministic order for
// messages and tests).
func (s *Set) Entries() []Entry {
	out := make([]Entry, 0, s.Len())
	s.ForEach(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// IDSet returns the ids present as a bitset.
func (s *Set) IDSet() ident.Set { return s.present.Clone() }

// ForEach visits entries in ascending id order. If fn returns false the
// iteration stops.
func (s *Set) ForEach(fn func(Entry) bool) {
	s.present.ForEach(func(id ident.ID) bool {
		return fn(Entry{ID: id, Tag: s.tags[id]})
	})
}

// String renders the set with entries in ascending id order.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Entries() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte('}')
	return b.String()
}

// The merge laws below work on the pair suspected_i / mistake_i. The protocol
// keeps an id in at most one of the two; if an invariant violation ever put
// it in both, the larger tag governs.

// Fresher reports whether information tagged incoming about id is strictly
// more recent than whatever suspected and mistake currently record about id.
// This is the guard of Algorithm 1 line 22 (suspicion loop): the receiver
// takes a suspicion into account only if the id is unknown to both sets or
// the known tag is strictly smaller.
func Fresher(suspected, mistake *Set, id ident.ID, incoming Tag) bool {
	if t, ok := suspected.Get(id); ok && t >= incoming {
		return false
	}
	if t, ok := mistake.Get(id); ok && t >= incoming {
		return false
	}
	return true
}

// MergeSuspicion is Algorithm 1 lines 22 and 27–28: the suspicion e is
// adopted only if strictly fresher than anything recorded about e.ID (the
// Fresher guard), and then moves e.ID into suspected under e.Tag, superseding
// any mistake. It reports whether e.ID entered the suspected set: false when
// e was not adopted, and when e.ID was suspected already and only its tag
// rose. An e.ID that is not InRange is never adopted.
func MergeSuspicion(suspected, mistake *Set, e Entry) (entered bool) {
	if !InRange(e.ID) {
		return false
	}
	st, wasSuspected := suspected.Get(e.ID)
	if wasSuspected && st >= e.Tag {
		return false
	}
	mt, mistaken := mistake.Get(e.ID)
	if mistaken && mt >= e.Tag {
		return false
	}
	suspected.Add(e.ID, e.Tag)
	if mistaken {
		mistake.Remove(e.ID)
	}
	return !wasSuspected
}

// MergeMistake is Algorithm 1 lines 33–35: the mistake e is adopted when
// fresher than or as fresh as anything recorded about e.ID — a mistake wins
// the tie against a suspicion, and an equal mistake is re-applicable — and
// then moves e.ID into mistake under e.Tag. It reports whether e was adopted
// and, if so, whether e.ID left the suspected set. An e.ID that is not
// InRange is never adopted.
func MergeMistake(suspected, mistake *Set, e Entry) (adopted, cleared bool) {
	if !InRange(e.ID) {
		return false, false
	}
	mt, mistaken := mistake.Get(e.ID)
	if mistaken && mt > e.Tag {
		return false, false
	}
	st, wasSuspected := suspected.Get(e.ID)
	if wasSuspected && st > e.Tag {
		return false, false
	}
	if !mistaken || mt != e.Tag { // a settled run re-offers the tag already held: nothing to store
		mistake.Add(e.ID, e.Tag)
	}
	if wasSuspected {
		suspected.Remove(e.ID)
	}
	return true, wasSuspected
}
