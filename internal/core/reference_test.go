package core

// reference_test.go keeps the store task T2 merged into before the
// tagset.Table: two refSets, suspected_i and mistake_i, each a tag array
// plus a presence bitset, the merge laws over the pair, and a refDetector
// that runs task T2 and task T1's suspicion scan over them as Detector did.
// It is the oracle FuzzTableMatchesSets holds the Detector to.

import (
	"slices"

	"asyncfd/internal/core/tagset"
	"asyncfd/internal/ident"
)

// refSet is a set of ⟨id, tag⟩ pairs with at most one entry per id. The zero
// value is an empty set ready for use. refSet is not safe for concurrent use.
type refSet struct {
	// tags[id] is id's tag while present holds id and garbage otherwise;
	// len(tags) exceeds every id present.
	tags    []tagset.Tag
	present ident.Set
}

// Add implements the paper's Add(set, ⟨id, counter⟩): it inserts ⟨id, tag⟩,
// replacing any existing entry for id regardless of its tag. Callers are
// responsible for recency checks; refMergeSuspicion and refMergeMistake are the
// guarded variants task T2 uses. Adding an id that is not InRange is a no-op.
func (s *refSet) Add(id ident.ID, tag tagset.Tag) {
	if !tagset.InRange(id) {
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
func (s *refSet) Remove(id ident.ID) bool {
	if !s.present.Has(id) {
		return false
	}
	s.present.Remove(id)
	return true
}

// Get returns the tag associated with id.
func (s *refSet) Get(id ident.ID) (tagset.Tag, bool) {
	if !s.present.Has(id) {
		return 0, false
	}
	return s.tags[id], true
}

// Has reports whether id has an entry.
func (s *refSet) Has(id ident.ID) bool { return s.present.Has(id) }

// Len returns the number of entries.
func (s *refSet) Len() int { return s.present.Len() }

// Entries returns the entries in ascending id order (deterministic order for
// messages and tests).
func (s *refSet) Entries() []tagset.Entry {
	out := make([]tagset.Entry, 0, s.Len())
	s.ForEach(func(e tagset.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// IDSet returns the ids present as a bitset.
func (s *refSet) IDSet() ident.Set { return s.present.Clone() }

// ForEach visits entries in ascending id order. If fn returns false the
// iteration stops.
func (s *refSet) ForEach(fn func(tagset.Entry) bool) {
	s.present.ForEach(func(id ident.ID) bool {
		return fn(tagset.Entry{ID: id, Tag: s.tags[id]})
	})
}

// The merge laws below work on the pair suspected_i / mistake_i. The protocol
// keeps an id in at most one of the two (a tagset.Table cannot represent
// anything else); in the pair, an id in both would be governed by the larger
// tag.

// refFresher reports whether information tagged incoming about id is strictly
// more recent than whatever suspected and mistake currently record about id.
// This is the guard of Algorithm 1 line 22 (suspicion loop): the receiver
// takes a suspicion into account only if the id is unknown to both sets or
// the known tag is strictly smaller.
func refFresher(suspected, mistake *refSet, id ident.ID, incoming tagset.Tag) bool {
	if t, ok := suspected.Get(id); ok && t >= incoming {
		return false
	}
	if t, ok := mistake.Get(id); ok && t >= incoming {
		return false
	}
	return true
}

// refMergeSuspicion is Algorithm 1 lines 22 and 27–28: the suspicion e is
// adopted only if strictly fresher than anything recorded about e.ID (the
// refFresher guard), and then moves e.ID into suspected under e.Tag, superseding
// any mistake. It reports whether e.ID entered the suspected set: false when
// e was not adopted, and when e.ID was suspected already and only its tag
// rose. An e.ID that is not InRange is never adopted.
func refMergeSuspicion(suspected, mistake *refSet, e tagset.Entry) (entered bool) {
	if !tagset.InRange(e.ID) {
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

// refMergeMistake is Algorithm 1 lines 33–35: the mistake e is adopted when
// fresher than or as fresh as anything recorded about e.ID — a mistake wins
// the tie against a suspicion, and an equal mistake is re-applicable — and
// then moves e.ID into mistake under e.Tag. It reports whether e was adopted
// and, if so, whether e.ID left the suspected set. An e.ID that is not
// InRange is never adopted.
func refMergeMistake(suspected, mistake *refSet, e tagset.Entry) (adopted, cleared bool) {
	if !tagset.InRange(e.ID) {
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

// refDetector is task T2 and task T1's suspicion scan as Detector ran them
// over the pair of refSets. Round bookkeeping is left out: round is handed
// the responders.
type refDetector struct {
	self               ident.ID
	quorum             int
	noTags, mobility   bool
	counter            tagset.Tag
	suspected, mistake *refSet
	known              ident.Set
	events             []Event
}

func (r *refDetector) emit(e Event) { r.events = append(r.events, e) }

func (r *refDetector) handleQuery(q Query) {
	if q.From != r.self && tagset.InRange(q.From) {
		r.known.Add(q.From) // line 20
	}
	for _, e := range q.Suspected { // lines 21–31
		if !tagset.InRange(e.ID) {
			continue
		}
		if e.ID == r.self {
			if !r.noTags && !refFresher(r.suspected, r.mistake, e.ID, e.Tag) {
				continue
			}
			if r.counter < e.Tag+1 {
				r.counter = e.Tag + 1
			}
			r.mistake.Add(r.self, r.counter)
			r.emit(Event{Kind: Restore, Subject: r.self, Tag: r.counter, Source: SelfRefutation})
			continue
		}
		var entered bool
		if r.noTags {
			entered = !r.suspected.Has(e.ID)
			r.suspected.Add(e.ID, e.Tag)
			r.mistake.Remove(e.ID)
		} else {
			entered = refMergeSuspicion(r.suspected, r.mistake, e)
		}
		if entered {
			r.emit(Event{Kind: Suspect, Subject: e.ID, Tag: e.Tag, Source: Gossip})
		}
	}
	for _, e := range q.Mistake { // lines 32–37
		if !tagset.InRange(e.ID) {
			continue
		}
		adopted, cleared := true, false
		if r.noTags {
			r.mistake.Add(e.ID, e.Tag)
			cleared = r.suspected.Remove(e.ID)
		} else {
			adopted, cleared = refMergeMistake(r.suspected, r.mistake, e)
		}
		if !adopted {
			continue
		}
		if cleared {
			r.emit(Event{Kind: Restore, Subject: e.ID, Tag: e.Tag, Source: Gossip})
		}
		if r.mobility && e.ID != q.From && e.ID != r.self {
			r.known.Remove(e.ID)
		}
	}
}

// round closes a round whose responses came from responders: if they and
// self make a quorum, every other known process not suspected already
// becomes suspected (lines 8–16).
func (r *refDetector) round(responders ident.Set) {
	recFrom := responders.Clone()
	recFrom.Add(r.self)
	if recFrom.Len() < r.quorum {
		return
	}
	r.known.ForEach(func(pj ident.ID) bool {
		if recFrom.Has(pj) || r.suspected.Has(pj) {
			return true
		}
		if mtag, ok := r.mistake.Get(pj); ok {
			// Lines 10–13: supersede the old mistake.
			if r.counter < mtag+1 {
				r.counter = mtag + 1
			}
			r.mistake.Remove(pj)
		}
		r.suspected.Add(pj, r.counter)
		r.emit(Event{Kind: Suspect, Subject: pj, Tag: r.counter, Source: LocalDetection})
		return true
	})
	r.counter++ // line 16
}
