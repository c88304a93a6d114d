package ring

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sliceRing is the oracle: the bounded ring as a plain slice of samples in
// storage order, with the base and width the Ring should have.
type sliceRing struct {
	s    []time.Duration
	next int
	base time.Duration
	wide bool
}

func (o *sliceRing) push(v time.Duration, capacity int) (old time.Duration) {
	if len(o.s) == 0 {
		o.base = v
	}
	if off := v - o.base; off < math.MinInt32 || off > math.MaxInt32 {
		o.wide = true
	}
	if len(o.s) < capacity {
		o.s = append(o.s, v)
		return 0
	}
	old = o.s[o.next]
	o.s[o.next] = v
	o.next = (o.next + 1) % capacity
	return old
}

func (o *sliceRing) reset() { o.s, o.next, o.wide = o.s[:0], 0, false }

// check holds r to the oracle: the same samples in the same storage order,
// and wide exactly while some sample since the last reset lay 2³¹ ns or more
// from the base.
func check(t testing.TB, step int, r *Ring, o *sliceRing) {
	t.Helper()
	if r.Len() != len(o.s) || r.wide != o.wide {
		t.Fatalf("step %d: %d samples, wide %v; want %d, %v", step, r.Len(), r.wide, len(o.s), o.wide)
	}
	words := r.Len()
	if r.wide {
		words *= 2
	}
	if len(r.s) != words {
		t.Fatalf("step %d: %d samples in %d words", step, r.Len(), len(r.s))
	}
	for i, want := range o.s {
		if got := r.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
		}
	}
}

// runScript interprets data as a capacity (one byte) and a list of two-byte
// operations on a Ring and its oracle, checked after each: pushes near the
// previous sample, on either side of ±2³¹ ns from the base, and anywhere in
// int64; Reset; and carrying on from a copy made into a dirty destination.
func runScript(t testing.TB, data []byte) {
	if len(data) < 1 {
		return
	}
	if len(data) > 401 {
		data = data[:401]
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	capacity := 1 + int(data[0])%64

	var r, scratch Ring
	var o, scratchO sliceRing
	last := time.Duration(0)
	push := func(step int, v time.Duration) {
		if got, want := r.Push(v, capacity), o.push(v, capacity); got != want {
			t.Fatalf("step %d: Push(%d) evicted %d, want %d", step, v, got, want)
		}
		last = v
	}
	for step, ops := 0, data[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
		arg := int64(ops[1])
		switch ops[0] % 6 {
		case 0, 1: // near the last sample
			push(step, last+time.Duration(arg-128)*time.Millisecond)
		case 2: // at the edge of the narrow range, inside or out, either side
			edge := time.Duration(math.MaxInt32 - 1 + arg%4) // 2³¹−2 … 2³¹+1
			if arg&4 != 0 {
				edge = -edge - 1 // −2³¹+1 … −2³¹−2
			}
			push(step, o.base+edge)
		case 3: // anywhere
			push(step, time.Duration(rng.Uint64()))
		case 4: // empty: the next push is the base, and the ring narrow again
			r.Reset()
			o.reset()
		case 5: // carry on from a copy made into a dirty destination
			r.CopyTo(&scratch)
			scratchO = sliceRing{s: append(scratchO.s[:0], o.s...), next: o.next, base: o.base, wide: o.wide}
			r, scratch = scratch, r
			o, scratchO = scratchO, o
		}
		check(t, step, &r, &o)
	}
}

// FuzzRingMatchesSlice drives random scripts of pushes, resets and copies
// against the Ring and a plain []time.Duration, and after every step compares
// every sample in storage order. The committed corpus
// (testdata/fuzz/FuzzRingMatchesSlice) is replayed by plain go test.
func FuzzRingMatchesSlice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}
