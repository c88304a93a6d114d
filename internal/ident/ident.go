// Package ident provides process identities and dense process sets.
//
// The protocol of the paper indexes processes p_1..p_n. We represent a
// process identity as a small non-negative integer (ID) and provide Set, a
// bitset keyed by ID, which is the workhorse collection for rec_from, known
// and membership bookkeeping. Set is a value type whose zero value is the
// empty set; mutating methods use pointer receivers and grow storage on
// demand.
package ident

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ID identifies a process. IDs are dense, non-negative integers assigned at
// cluster construction time. The zero ID is a valid process identity; Nil
// marks the absence of a process.
type ID int32

// Nil is the absent process identity.
const Nil ID = -1

// String implements fmt.Stringer, rendering the identity as the paper does
// (p0, p1, ...).
func (id ID) String() string {
	if id == Nil {
		return "p⊥"
	}
	return fmt.Sprintf("p%d", int32(id))
}

// Valid reports whether the identity denotes an actual process.
func (id ID) Valid() bool { return id >= 0 }

const wordBits = 64

// Set is a dense bitset of process identities. The zero value is an empty
// set ready for use. Set is not safe for concurrent mutation.
type Set struct {
	words []uint64
}

// NewSet returns an empty set with capacity for ids in [0, n).
func NewSet(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FullSet returns the set {0, 1, ..., n-1}.
func FullSet(n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Add(ID(i))
	}
	return s
}

// SetOf builds a set containing exactly the given ids.
func SetOf(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts id into the set. Adding Nil or a negative id is a no-op.
func (s *Set) Add(id ID) {
	if id < 0 {
		return
	}
	w := int(id) / wordBits
	s.grow(w)
	s.words[w] |= 1 << (uint(id) % wordBits)
}

// Remove deletes id from the set if present.
func (s *Set) Remove(id ID) {
	if id < 0 {
		return
	}
	w := int(id) / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) % wordBits)
	}
}

// Has reports whether id is in the set.
func (s Set) Has(id ID) bool {
	if id < 0 {
		return false
	}
	w := int(id) / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%wordBits)) != 0
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := Set{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Union adds every element of other to s.
func (s *Set) Union(other Set) {
	s.grow(len(other.words) - 1)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// Equal reports whether both sets contain exactly the same elements.
func (s Set) Equal(other Set) bool {
	long, short := s.words, other.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order. If fn returns false
// iteration stops.
func (s Set) ForEach(fn func(ID) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(ID(i*wordBits + b)) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set like {p0, p3, p7}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id ID) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(id.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// SortIDs sorts a slice of identities in ascending order, in place, and
// returns it for convenience.
func SortIDs(ids []ID) []ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
