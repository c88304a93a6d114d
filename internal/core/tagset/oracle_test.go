package tagset

import (
	"sort"

	"asyncfd/internal/ident"
)

// mapSet is the map-backed Set that was the production store until the
// id-indexed Set replaced it, kept verbatim as the oracle the differential
// tests hold the new store to.
type mapSet struct {
	m map[ident.ID]Tag
}

func (s *mapSet) ensure() {
	if s.m == nil {
		s.m = make(map[ident.ID]Tag)
	}
}

// Add inserts ⟨id, tag⟩, replacing any existing entry for id.
func (s *mapSet) Add(id ident.ID, tag Tag) {
	if !id.Valid() {
		return
	}
	s.ensure()
	s.m[id] = tag
}

// Remove deletes the entry for id, reporting whether one was present.
func (s *mapSet) Remove(id ident.ID) bool {
	if s.m == nil {
		return false
	}
	if _, ok := s.m[id]; !ok {
		return false
	}
	delete(s.m, id)
	return true
}

// Get returns the tag associated with id.
func (s *mapSet) Get(id ident.ID) (Tag, bool) {
	if s.m == nil {
		return 0, false
	}
	t, ok := s.m[id]
	return t, ok
}

// Has reports whether id has an entry.
func (s *mapSet) Has(id ident.ID) bool {
	_, ok := s.Get(id)
	return ok
}

// Len returns the number of entries.
func (s *mapSet) Len() int { return len(s.m) }

// Clear removes all entries.
func (s *mapSet) Clear() {
	for id := range s.m {
		delete(s.m, id)
	}
}

// Clone returns an independent copy.
func (s *mapSet) Clone() *mapSet {
	out := &mapSet{m: make(map[ident.ID]Tag, len(s.m))}
	for id, t := range s.m {
		out.m[id] = t
	}
	return out
}

// Entries returns the entries sorted by id (deterministic order for messages
// and tests).
func (s *mapSet) Entries() []Entry {
	out := make([]Entry, 0, len(s.m))
	for id, t := range s.m {
		out = append(out, Entry{ID: id, Tag: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDSet returns the ids present as a bitset.
func (s *mapSet) IDSet() ident.Set {
	var out ident.Set
	for id := range s.m {
		out.Add(id)
	}
	return out
}

// mapFresher reports whether information tagged incoming about id is strictly
// more recent than whatever suspected and mistake currently record about id.
// This is the guard of Algorithm 1 line 22 (suspicion loop): the receiver
// takes a suspicion into account only if the id is unknown to both sets or
// the known tag is strictly smaller.
func mapFresher(suspected, mistake *mapSet, id ident.ID, incoming Tag) bool {
	cur, ok := currentTag(suspected, mistake, id)
	return !ok || cur < incoming
}

// mapFresherOrEqual is the guard of Algorithm 1 line 33 (mistake loop): a
// mistake wins ties, so an incoming mistake is applied when the known tag is
// smaller or equal.
func mapFresherOrEqual(suspected, mistake *mapSet, id ident.ID, incoming Tag) bool {
	cur, ok := currentTag(suspected, mistake, id)
	return !ok || cur <= incoming
}

// currentTag returns the tag recorded for id across the pair of sets. At
// most one of the two sets holds id at any time in the protocol; if an
// invariant violation ever put id in both, the larger tag wins.
func currentTag(suspected, mistake *mapSet, id ident.ID) (Tag, bool) {
	st, sok := suspected.Get(id)
	mt, mok := mistake.Get(id)
	switch {
	case sok && mok:
		if st > mt {
			return st, true
		}
		return mt, true
	case sok:
		return st, true
	case mok:
		return mt, true
	default:
		return 0, false
	}
}

// mapMergeSuspicion and mapMergeMistake are task T2's two steps as
// HandleQuery spelled them over the map: the guard, then Has/Add/Remove.
func mapMergeSuspicion(suspected, mistake *mapSet, e Entry) (entered bool) {
	if !mapFresher(suspected, mistake, e.ID, e.Tag) {
		return false
	}
	wasSuspected := suspected.Has(e.ID)
	suspected.Add(e.ID, e.Tag)
	mistake.Remove(e.ID)
	return !wasSuspected
}

func mapMergeMistake(suspected, mistake *mapSet, e Entry) (adopted, cleared bool) {
	if !mapFresherOrEqual(suspected, mistake, e.ID, e.Tag) {
		return false, false
	}
	mistake.Add(e.ID, e.Tag)
	return true, suspected.Remove(e.ID)
}
