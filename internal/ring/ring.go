// Package ring is the bounded sample ring the heartbeat family keeps per
// monitored peer: NFD-E's lags (internal/chen) and φ's inter-arrival gaps
// (internal/phiaccrual). At n = 128 a run keeps 16 256 of them, so a sample
// is stored in four bytes: an int32 offset from the first sample pushed since
// the ring was last empty, its base. The samples of one peer sit close
// together — gaps near Δ, lags near the network delay — so the offsets fit.
// One that does not, ±2³¹ ns (about 2.1 s) or more from the base, widens the
// ring to two int32 words a sample, the whole int64 offset, until the ring is
// emptied (Reset). The committed sweeps reach that path: φ windows in them
// take gaps more than 2.1 s longer than their first.
//
// The ring keeps no sums: what a rule folds over its window (NFD-E's integer
// sum, φ's exact sums) stays with the rule, which adjusts it by what Push
// evicts.
package ring

import "time"

// Ring is a bounded ring of samples. The zero value is an empty ring. A
// sample is read back exactly: offsets wrap, and so does adding the base
// back.
type Ring struct {
	// s holds the offsets from base in storage order: one word a sample, or,
	// when wide, two — the low half, then the high one.
	s    []int32
	base time.Duration
	// next is the sample the next Push overwrites once the ring is full.
	next int32
	wide bool
}

// Len returns the number of samples held.
func (r *Ring) Len() int {
	if r.wide {
		return len(r.s) / 2
	}
	return len(r.s)
}

// At returns sample i in storage order, 0 ≤ i < Len: push order until the
// ring first fills, after which each Push overwrites the oldest sample in its
// place.
func (r *Ring) At(i int) time.Duration {
	if r.wide {
		return r.base + time.Duration(int64(r.s[2*i+1])<<32|int64(uint32(r.s[2*i])))
	}
	return r.base + time.Duration(r.s[i])
}

// Push adds v, evicting the oldest sample when the ring already holds
// capacity of them, and returns the sample it evicted: 0 when the ring had
// room, which is what a running sum subtracts for no sample.
func (r *Ring) Push(v time.Duration, capacity int) (old time.Duration) {
	if len(r.s) == 0 {
		r.base = v
	}
	off := v - r.base
	if r.wide || off != time.Duration(int32(off)) {
		return r.pushWide(off, capacity)
	}
	if len(r.s) < capacity {
		r.s = append(r.s, int32(off))
		return 0
	}
	i := r.next
	old = r.base + time.Duration(r.s[i])
	r.s[i] = int32(off)
	if r.next++; int(r.next) == capacity {
		r.next = 0
	}
	return old
}

// pushWide is Push for an offset that does not fit in four bytes, or into a
// ring that is wide already.
func (r *Ring) pushWide(off time.Duration, capacity int) (old time.Duration) {
	if !r.wide {
		r.widen()
	}
	if len(r.s)/2 < capacity {
		r.s = append(r.s, int32(off), int32(off>>32))
		return 0
	}
	i := int(r.next)
	old = r.At(i)
	r.s[2*i], r.s[2*i+1] = int32(off), int32(off>>32)
	if r.next++; int(r.next) == capacity {
		r.next = 0
	}
	return old
}

// widen rewrites every sample as two words, in place from the last one back:
// sample i moves to words 2i and 2i+1, neither of which an earlier sample
// still to be moved occupies.
func (r *Ring) widen() {
	n := len(r.s)
	r.s = append(r.s, make([]int32, n)...)
	for i := n - 1; i >= 0; i-- {
		v := r.s[i]
		r.s[2*i], r.s[2*i+1] = v, v>>31
	}
	r.wide = true
}

// Reset empties the ring, keeping its storage; the next Push sets a new
// base, and the ring is narrow again.
func (r *Ring) Reset() {
	r.s, r.next, r.wide = r.s[:0], 0, false
}

// CopyTo makes dst a copy of r that shares no storage with it, reusing dst's.
func (r *Ring) CopyTo(dst *Ring) {
	s := append(dst.s[:0], r.s...)
	*dst = *r
	dst.s = s
}
