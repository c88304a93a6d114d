package des

// ladder.go is the calendar-queue (ladder) eventQueue: the kernel's timing
// structure. The classic DES answer to a binary heap's O(log n)
// push/pop on dense horizons is to spread events over an array of
// fixed-width time buckets and drain them in bucket order — O(1) amortized
// when bucket occupancy stays small. The ladder variant keeps that promise
// under skew by subdividing overfull buckets into child rungs of finer
// width, and under deep timer horizons by parking far events in an unsorted
// top list that re-spawns into a fresh year (new epoch, re-sized bucket
// width) whenever the current year drains.
//
// Layout, nearest-first:
//
//	bottom   sorted drain of the frontmost consumed bucket (plus any event
//	         pushed below the frontier afterwards); popMin reads its head
//	rungs    rungs[0] is the year — fixed-width buckets over [start, end);
//	         each deeper rung subdivides its parent's current bucket
//	top      unsorted overflow beyond the year's end (the far horizon)
//
// The frontier is the structure's low watermark: every event stored in
// rungs or top fires at or after it, and pushes below it binary-insert into
// bottom. Advancing the frontier as buckets are consumed is what makes the
// deepest-rung-first push walk safe: an incoming event either lands in
// bottom (below the frontier) or maps to a bucket at or past the current
// one, never behind the drain.
//
// Ordering is exactly the kernel's (at, seq) key: buckets are sorted with
// state.less when they become the bottom drain, so same-instant FIFO
// ties — including re-armed timers, whose seqs may be smaller than
// already-queued events' — resolve identically to the binary heap of
// heap_test.go. The differential harness (TestQueueDifferential,
// FuzzQueueEquivalence) enforces that equivalence. The ladder holds timers
// and unicasts only: fan-out nodes merge through the kernel's own heap
// (state.fan in des.go).

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"
)

const (
	// ladderMinBuckets / ladderMaxBuckets bound the bucket count a rung is
	// built with; within the bounds it tracks the event count so occupancy
	// stays near one event per bucket.
	ladderMinBuckets = 16
	ladderMaxBuckets = 1 << 14
	// ladderSpawnLen is the bucket occupancy beyond which the bucket is
	// subdivided into a child rung instead of sorted wholesale.
	ladderSpawnLen = 48
	// ladderMaxRungs caps subdivision depth; past it (or at 1ns width)
	// buckets just sort, which is still correct and never pathological for
	// the widths that remain.
	ladderMaxRungs = 10
	// ladderSpareCap bounds the recycled-bucket pool.
	ladderSpareCap = 1 << 12
)

// ladderRung is one rung: fixed-width buckets over [start, end). The last
// bucket absorbs the remainder when the span does not divide evenly, so
// bucketIndex clamps and bucketBounds caps at end.
type ladderRung struct {
	start   time.Duration
	end     time.Duration
	width   time.Duration // ≥ 1ns
	cur     int           // current bucket; buckets below cur are spent
	n       int           // events currently stored in this rung
	buckets [][]int32
}

func (r *ladderRung) bucketIndex(at time.Duration) int {
	idx := int((at - r.start) / r.width)
	if idx >= len(r.buckets) {
		idx = len(r.buckets) - 1
	}
	return idx
}

// bucketBounds returns bucket k's half-open range [lo, hi). hi is capped at
// the rung's end so a child rung spawned from the last bucket never covers
// time the parent's siblings own.
func (r *ladderRung) bucketBounds(k int) (lo, hi time.Duration) {
	lo = r.start + time.Duration(k)*r.width
	hi = lo + r.width
	if hi > r.end || hi < lo { // cap, and guard Duration overflow
		hi = r.end
	}
	return lo, hi
}

// ladderQueue implements eventQueue. See the file comment for the layout.
type ladderQueue struct {
	s    *state
	size int

	// bottom is the sorted drain; bottom[bottomHead:] is the live part.
	bottom     []int32
	bottomHead int

	// frontier: every event in rungs/top fires ≥ frontier; pushes below it
	// sort into bottom. Monotonically non-decreasing.
	frontier time.Duration

	rungs []ladderRung

	top            []int32
	topMin, topMax time.Duration

	// spare recycles bucket slices of dropped rungs across re-spawns, so a
	// steady-state workload stops allocating.
	spare [][]int32
}

func (q *ladderQueue) len() int { return q.size }

func (q *ladderQueue) push(i int32) {
	at := q.s.events[i].at
	q.size++
	if at < q.frontier {
		q.insertBottom(i)
		return
	}
	// Deepest rung first: each deeper rung's range is a prefix slice of its
	// parent's current bucket, and at ≥ frontier guarantees the computed
	// bucket is at or past every rung's current position.
	for k := len(q.rungs) - 1; k >= 0; k-- {
		r := &q.rungs[k]
		if at < r.end {
			idx := r.bucketIndex(at)
			r.buckets[idx] = append(r.buckets[idx], i)
			r.n++
			return
		}
	}
	if len(q.top) == 0 || at < q.topMin {
		q.topMin = at
	}
	if len(q.top) == 0 || at > q.topMax {
		q.topMax = at
	}
	q.top = append(q.top, i)
}

// insertBottom binary-inserts i into the live part of the sorted drain.
// Full (at, seq) comparison: a re-armed timer can carry a smaller seq than
// events already queued at the same instant.
//
// Bottom stays naturally small while rungs exist (only the current bucket's
// window lands here). The one way it can grow without bound is after
// takeSmallTop jumped the frontier far ahead and a dense burst then arrives
// below it — in exactly that state (no rungs, no top) the burst is poured
// back as a fresh top list for a proper re-spawn instead.
func (q *ladderQueue) insertBottom(i int32) {
	s := q.s
	if len(q.rungs) == 0 && len(q.top) == 0 && len(q.bottom)-q.bottomHead >= 2*ladderSpawnLen {
		q.rebuildFromBottom(i)
		return
	}
	live := q.bottom[q.bottomHead:]
	pos := sort.Search(len(live), func(j int) bool { return s.less(i, live[j]) })
	q.bottom = append(q.bottom, 0)
	at := q.bottomHead + pos
	copy(q.bottom[at+1:], q.bottom[at:])
	q.bottom[at] = i
}

// rebuildFromBottom re-seeds the ladder from the live drain plus the
// incoming event: everything becomes the new top list and the frontier
// drops to its minimum fire time, so the next ensure re-spawns a year with
// a width sized to the actual pending horizon. Safe exactly when rungs and
// top are empty — the drain IS the whole queue, so lowering the frontier
// cannot reorder anything.
func (q *ladderQueue) rebuildFromBottom(i int32) {
	s := q.s
	live := q.bottom[q.bottomHead:]
	q.top = append(q.top, live...)
	q.top = append(q.top, i)
	q.topMin, q.topMax = s.events[q.top[0]].at, s.events[q.top[0]].at
	for _, j := range q.top[1:] {
		at := s.events[j].at
		if at < q.topMin {
			q.topMin = at
		}
		if at > q.topMax {
			q.topMax = at
		}
	}
	q.bottom = q.bottom[:0]
	q.bottomHead = 0
	q.frontier = q.topMin
}

// takeSmallTop short-circuits tiny populations: sorting a handful of
// events straight into the bottom drain beats building bucket arrays, and
// is what keeps cold-start simulators and sparse tails allocation-free.
func (q *ladderQueue) takeSmallTop() {
	s := q.s
	q.bottom = append(q.bottom, q.top...)
	q.top = q.top[:0]
	hi := q.topMax + 1
	if hi < q.topMax { // Duration overflow at the far end of time
		hi = math.MaxInt64
	}
	q.advanceFrontier(hi)
	q.topMin, q.topMax = 0, 0
	sortIndices(s, q.bottom)
}

// sortIndices orders slab indices by (at, seq). Insertion sort below a
// small threshold; slices.SortFunc (no reflection) above it. (at, seq) is
// a total order — seqs are unique — so the unstable sort's output is the
// unique sorted permutation either way.
func sortIndices(s *state, v []int32) {
	if len(v) <= 2*ladderSpawnLen {
		for a := 1; a < len(v); a++ {
			x := v[a]
			b := a - 1
			for b >= 0 && s.less(x, v[b]) {
				v[b+1] = v[b]
				b--
			}
			v[b+1] = x
		}
		return
	}
	slices.SortFunc(v, func(a, b int32) int {
		ea, eb := &s.events[a], &s.events[b]
		if ea.at != eb.at {
			return cmp.Compare(ea.at, eb.at)
		}
		return cmp.Compare(ea.seq, eb.seq)
	})
}

func (q *ladderQueue) advanceFrontier(t time.Duration) {
	if t > q.frontier {
		q.frontier = t
	}
}

// ensure makes bottom's head the queue minimum (or leaves everything empty):
// it advances through bucket positions, subdividing overfull buckets into
// child rungs, dropping exhausted rungs, and re-spawning a new year from the
// top list when the ladder runs dry — the epoch advance.
func (q *ladderQueue) ensure() {
	for {
		if q.bottomHead < len(q.bottom) {
			return
		}
		if len(q.bottom) > 0 {
			q.bottom = q.bottom[:0]
			q.bottomHead = 0
		}
		if len(q.rungs) == 0 {
			if len(q.top) == 0 {
				return
			}
			if len(q.top) <= ladderSpawnLen {
				q.takeSmallTop()
				return
			}
			q.spawnYear()
			continue
		}
		r := &q.rungs[len(q.rungs)-1]
		for r.cur < len(r.buckets) && len(r.buckets[r.cur]) == 0 {
			r.cur++
		}
		if r.cur >= len(r.buckets) {
			// Rung exhausted. The parent's current bucket (which this rung
			// subdivided) is empty, so the parent's own skip loop advances
			// past it next iteration.
			q.advanceFrontier(r.end)
			q.dropRung()
			continue
		}
		lo, hi := r.bucketBounds(r.cur)
		// The frontier must reach the current bucket's start even when the
		// skip loop jumped empty buckets: pushes below it belong in bottom,
		// never behind the drain position.
		q.advanceFrontier(lo)
		b := r.buckets[r.cur]
		if len(b) > ladderSpawnLen && r.width > 1 && len(q.rungs) < ladderMaxRungs {
			q.spawnChild(r, b, lo, hi)
			continue
		}
		// Take the bucket as the new bottom drain.
		q.bottom = append(q.bottom, b...)
		r.buckets[r.cur] = b[:0]
		r.n -= len(b)
		r.cur++
		q.advanceFrontier(hi)
		sortIndices(q.s, q.bottom)
		return
	}
}

// spawnChild subdivides the parent's current (overfull) bucket [lo, hi)
// into a finer-width child rung. The parent keeps its position; when the
// child drains, the parent's now-empty bucket is skipped.
func (q *ladderQueue) spawnChild(r *ladderRung, b []int32, lo, hi time.Duration) {
	child := q.newRung(lo, hi, len(b))
	for _, i := range b {
		idx := child.bucketIndex(q.s.events[i].at)
		child.buckets[idx] = append(child.buckets[idx], i)
	}
	child.n = len(b)
	r.n -= len(b)
	r.buckets[r.cur] = b[:0]
	q.rungs = append(q.rungs, child)
}

// spawnYear advances the epoch: the accumulated top list becomes a fresh
// year whose bucket width is re-sized to the list's span and count, so the
// structure adapts to however skewed the pending horizon is.
func (q *ladderQueue) spawnYear() {
	lo, hi := q.topMin, q.topMax+1
	if hi < q.topMax { // Duration overflow at the far end of time
		hi = math.MaxInt64
	}
	q.advanceFrontier(lo)
	r := q.newRung(lo, hi, len(q.top))
	for _, i := range q.top {
		idx := r.bucketIndex(q.s.events[i].at)
		r.buckets[idx] = append(r.buckets[idx], i)
	}
	r.n = len(q.top)
	q.top = q.top[:0]
	q.topMin, q.topMax = 0, 0
	q.rungs = append(q.rungs, r)
}

// newRung sizes a rung for count events over [start, end): bucket count
// tracks the event count (clamped to [ladderMinBuckets, ladderMaxBuckets])
// and width is the span split across it, at least 1ns.
func (q *ladderQueue) newRung(start, end time.Duration, count int) ladderRung {
	span := end - start
	if span < 1 {
		span = 1
	}
	nb := ladderMinBuckets
	for nb < count && nb < ladderMaxBuckets {
		nb <<= 1
	}
	// span/nb+1 (not ceil) keeps the arithmetic overflow-free even for
	// horizons at the far end of the Duration range.
	width := span/time.Duration(nb) + 1
	n := int(span/width) + 1
	return ladderRung{start: start, end: end, width: width, buckets: q.takeBuckets(n)}
}

// takeBuckets builds a bucket array of length n, refilling entries from the
// spare pool so steady-state re-spawns reuse earlier years' storage.
func (q *ladderQueue) takeBuckets(n int) [][]int32 {
	bk := make([][]int32, n)
	m := len(q.spare)
	for k := 0; k < n && m > 0; k++ {
		m--
		bk[k] = q.spare[m]
	}
	q.spare = q.spare[:m]
	return bk
}

// dropRung removes the deepest (exhausted) rung, pooling its bucket slices.
func (q *ladderQueue) dropRung() {
	k := len(q.rungs) - 1
	for _, b := range q.rungs[k].buckets {
		if cap(b) > 0 && len(q.spare) < ladderSpareCap {
			q.spare = append(q.spare, b[:0])
		}
	}
	q.rungs[k] = ladderRung{}
	q.rungs = q.rungs[:k]
}

func (q *ladderQueue) peekMin() int32 {
	q.ensure()
	if q.bottomHead >= len(q.bottom) {
		return noEvent
	}
	return q.bottom[q.bottomHead]
}

func (q *ladderQueue) popMin() int32 {
	q.ensure()
	if q.bottomHead >= len(q.bottom) {
		return noEvent
	}
	i := q.bottom[q.bottomHead]
	q.bottomHead++
	q.size--
	if q.bottomHead == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.bottomHead = 0
	}
	return i
}

// clone deep-copies the full ladder state — drain, rungs (with every bucket),
// top list, frontier and epoch bookkeeping — bound to owner's slab. The spare
// bucket pool is capacity only (its contents are always overwritten before
// use), so the clone starts with an empty one.
func (q *ladderQueue) clone(owner *state) eventQueue {
	c := &ladderQueue{
		s:          owner,
		size:       q.size,
		bottom:     append([]int32(nil), q.bottom...),
		bottomHead: q.bottomHead,
		frontier:   q.frontier,
		top:        append([]int32(nil), q.top...),
		topMin:     q.topMin,
		topMax:     q.topMax,
	}
	if len(q.rungs) > 0 {
		c.rungs = make([]ladderRung, len(q.rungs))
		copy(c.rungs, q.rungs)
		for k := range c.rungs {
			buckets := make([][]int32, len(c.rungs[k].buckets))
			for b, src := range c.rungs[k].buckets {
				if len(src) > 0 {
					buckets[b] = append([]int32(nil), src...)
				}
			}
			c.rungs[k].buckets = buckets
		}
	}
	return c
}

// indices returns every queued slab index, in no particular order — test
// hook for the slab-release invariant (no index reuse while queued).
func (q *ladderQueue) indices() []int32 {
	var out []int32
	out = append(out, q.bottom[q.bottomHead:]...)
	for _, r := range q.rungs {
		for _, b := range r.buckets {
			out = append(out, b...)
		}
	}
	out = append(out, q.top...)
	return out
}
