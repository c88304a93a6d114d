package node

import (
	"slices"

	"asyncfd/internal/ident"
)

// denseLimit bounds the IDs the direct-indexed backing array may grow to
// cover. The simulation harness numbers processes 0..n-1, so in practice
// every entry lands in the array; IDs at or above the limit (or negative
// ones) fall back to a hash map so arbitrary identities still work without
// unbounded memory.
const denseLimit = 1 << 14

// DenseMap maps ident.ID to T, optimized for the dense non-negative IDs the
// simulation harness assigns: small IDs index a backing slice directly,
// which keeps the detectors' per-delivery peer lookup off the hash path —
// map hashing was a measurable slice of large-n sweep time. The zero value
// is ready to use.
//
// The zero value of T means "absent": Get returns it for missing keys, and
// callers must not store it (detectors store non-nil pointers or timer
// handles, so the constraint costs nothing).
type DenseMap[T comparable] struct {
	dense  []T
	sparse map[ident.ID]T
}

// Get returns the value stored for id, or T's zero value if none.
func (m *DenseMap[T]) Get(id ident.ID) T {
	if i := int(id); i >= 0 && i < len(m.dense) {
		return m.dense[i]
	}
	return m.sparse[id]
}

// Put stores v for id, replacing any previous value. Storing T's zero value
// is equivalent to deleting the entry.
func (m *DenseMap[T]) Put(id ident.ID, v T) {
	var zero T
	if i := int(id); i >= 0 && i < denseLimit {
		if i >= len(m.dense) {
			// len(dense) stays highest id + 1; the capacity grows
			// geometrically, so filling ids 0..n-1 copies O(n) words. The
			// array never shrinks, so what lies between len and cap is zero.
			m.dense = slices.Grow(m.dense, i+1-len(m.dense))[:i+1]
		}
		m.dense[i] = v
		return
	}
	if v == zero {
		delete(m.sparse, id)
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[ident.ID]T)
	}
	m.sparse[id] = v
}
