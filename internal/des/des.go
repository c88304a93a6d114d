// Package des is a deterministic discrete-event simulation kernel.
//
// It replaces the paper's simulator testbed: experiments run in virtual time
// (no real sleeps), driven by a single-threaded event loop with a seeded
// random source, so every run is exactly reproducible from its seed. The
// kernel executes events in (time, FIFO) order and knows three kinds of
// them: a callback (After/At — fault injectors, experiment drivers), a timer
// owned by a process (AfterOwned — suppressed, but still counted, when the
// Sink says the owner is down), and a message (Send, or Fanout for a whole
// broadcast), which the kernel hands to the Sink registered by the network
// model. Messages and timers are scheduled as data, not closures: the
// simulator's send → queue → deliver → re-arm path allocates nothing per
// receiver.
//
// The kernel is built for throughput: events live in a slab recycled through
// a free list (no per-event heap allocation in steady state), and an event
// waits in one of two places. A timer due in a slot of the timer wheel
// (state.wheel) that has not started yet waits in that slot's bucket, an
// unordered list of slab indices. Everything else — messages, fan-out nodes,
// timers due in the current slot or beyond the wheel's span, and the contents
// of each slot as it drains — waits in one binary min-heap keyed inline by
// (at, seq) (state.heap), so a sift compares entries without reading the
// slab. Every event fires from the heap's root, so the heap alone decides the
// order: a slot is drained into it before any event keyed at or after the
// slot's start is taken, and an event due at the instant it is scheduled
// carries the newest sequence number, so it fires after the events already
// due then. A pending timer is re-armed in place (Timer.Reset): the new key is
// recorded on the event and applied where the old one surfaces — when its
// wheel slot drains, the timer is filed under the new key into a later
// bucket in O(1), so a timeout that is pushed back once per heartbeat never
// sifts through the heap until it is about to fire. A broadcast is a single
// Fanout node: its pointer-free items, recycled through a kernel-owned pool,
// are one sorted run of deliveries whose node stays in the heap under the key
// of its next one, so a broadcast-heavy run is a k-way merge of runs through
// that same heap. The package's differential tests hold the kernel to a
// reference scheduler that finds each next event by linear scan.
//
// Everything a run changes lives in one value, state; a checkpoint
// (Snapshot/Restore, snapshot.go) is a copy of it, made by the one function
// state.copyTo in either direction.
package des

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"time"

	"asyncfd/internal/ident"
)

// Sink is where the kernel's typed events end up: the network model, which
// registers itself once with SetSink. It keeps the kernel ignorant of what a
// handler or a crash is while letting messages and timers be queued as data.
type Sink interface {
	// Deliver hands over a message scheduled with Send or Fanout, at its
	// delivery time.
	Deliver(from, to ident.ID, payload any)
	// Alive reports whether a timer's owner may run its callback now.
	Alive(owner ident.ID) bool
}

// eventKind says which fields of an event node are in use.
type eventKind uint8

const (
	evTimer  eventKind = iota // fn, owned by `to` (ident.Nil: nobody, always runs)
	evMsg                     // (from, to, payload)
	evFanout                  // (from, payload) shared by items[head:]
)

// event is one kernel node: a callback, a message, or a whole fan-out.
// Events live in the simulator's slab, addressed by index and recycled
// through a free list; gen invalidates stale Timer handles when a slot is
// reused. For fan-out nodes, (at, seq) always hold the key of the earliest
// undelivered item, and a fan-out node is never stopped or re-armed.
type event struct {
	at      time.Duration
	seq     uint64
	fn      func()
	payload any
	items   []fanItem
	// newAt/newSeq is a pending re-arm (Timer.Reset): the key the timer
	// really fires under, applied when (at, seq) — the key it is queued
	// under, never later than the real one — surfaces: its wheel slot
	// drains, or it reaches the heap's root.
	// newSeq is zero when there is none: a Reset always draws a later
	// sequence number than the event's own.
	newAt   time.Duration
	newSeq  uint64
	from    ident.ID
	to      ident.ID
	head    int32 // next undelivered fan-out item
	gen     uint32
	kind    eventKind
	stopped bool
}

// fanItem is one receiver of a fan-out node. idx is the receiver's position
// in the caller's slice — the tiebreak among equal delivery times.
type fanItem struct {
	at  time.Duration
	to  ident.ID
	idx int32
}

// entry is an event in the kernel's heap, under a copy of its key so that a
// sift compares entries without reading the slab.
type entry struct {
	at  time.Duration
	seq uint64
	i   int32
}

func (a *entry) less(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Receiver is one destination of a Fanout.
type Receiver struct {
	D  time.Duration // delay from now; negative delays clamp to zero
	To ident.ID
}

// noEvent marks an empty slab reference.
const noEvent = int32(-1)

// Timer is a handle to a scheduled callback. Handles are immutable: Stop
// and Reset act on the kernel's event, so copies of a handle (a detector's
// checkpoint, say) stay interchangeable.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// pending returns the handle's event if it has neither run nor been stopped.
func (t *Timer) pending() *event {
	if t == nil || t.s == nil {
		return nil
	}
	e := &t.s.events[t.idx]
	if e.gen != t.gen || e.stopped {
		return nil
	}
	return e
}

// Stop cancels the event if it has not run yet, reporting whether it was
// still pending.
func (t *Timer) Stop() bool {
	e := t.pending()
	if e == nil {
		return false
	}
	e.stopped = true
	e.fn = nil // release captured state promptly
	return true
}

// Reset re-arms a still-pending timer to fire d from now (negative d clamps
// to zero) with the callback it already has. It costs O(1): the new key is
// recorded on the event and applied when the old one surfaces, which for a
// timer waiting in the wheel is when its slot drains, where the timer is
// filed into the new key's bucket without touching the heap. It reports
// false, having changed nothing, when the timer has run or was stopped, and
// when the new time lies before the key the event is queued under — neither
// the wheel nor the heap is searched, so an event can only be pushed back;
// the caller then does Stop and After. A true Reset fires exactly when Stop
// followed by After would have: it draws the sequence number After would
// have drawn. An owner that is down gets false too — the network model arms
// no timers for it.
func (t *Timer) Reset(d time.Duration) bool {
	e := t.pending()
	if e == nil {
		return false
	}
	s := t.s
	at := s.clampAt(d)
	if at < e.at || (e.to != ident.Nil && !s.sink.Alive(e.to)) {
		return false
	}
	e.newAt, e.newSeq = at, s.seq
	s.seq++
	return true
}

// state is everything about a Simulator that a run changes — virtual clock,
// sequence counter, the event slab (every in-flight message as data: endpoints,
// payload and per-fan-out item storage; every timer with its pending re-arm,
// if any), the free list, the timer wheel, the heap and the random stream
// position — and so everything a checkpoint holds. It exists as one value so
// that Snapshot and Restore are one copy (state.copyTo) run in the two
// directions: a field added here is checkpointed by being here.
type state struct {
	now     time.Duration
	seq     uint64
	stepped uint64
	pending int            // scheduled callbacks and deliveries not yet run or reclaimed
	stream  countingSource // the random stream: seed, draw count, generator

	events []event // slab; all event storage, recycled via free
	free   []int32 // recycled slab slots

	// wheel is the timer wheel in front of the heap: wheelSlots buckets,
	// bucket k holding, in no order, the slab indices of the timers keyed in
	// the one absolute slot (key >> wheelShift) in [cursor,
	// cursor+wheelSlots) that is k modulo wheelSlots. cursor is the first
	// slot not yet drained; wheeled counts the timers in all buckets. A
	// timer stays keyed as it was filed, however often it is re-armed, until
	// its slot drains (drain).
	wheel   [][]int32
	cursor  int64
	wheeled int

	// heap is a binary min-heap, by (at, seq), of every event that is not in
	// the wheel: unicasts, fan-out nodes, timers due in the current slot or
	// beyond the wheel's span, and the timers of each slot the wheel drains.
	// Every event fires from its root. Entries are keyed by the key the
	// event is queued under, which a stopped or re-armed event keeps until
	// it surfaces at the root. A fan-out node is a sorted run of deliveries,
	// so it holds one entry however many deliveries remain, re-keyed at its
	// next receiver.
	heap []entry
}

// Simulator is the event loop. It is strictly single-threaded: all scheduled
// closures run on the goroutine that calls Step/Run/RunUntil, so simulated
// components need no locking.
type Simulator struct {
	state

	rng  *rand.Rand //fdlint:allow clonefields reads state.stream, which is where the position lives
	sink Sink       //fdlint:allow clonefields immutable wiring, set once by the network model

	// itemFree recycles the slices fan-out nodes carry their items in, so
	// steady-state broadcasts reuse storage instead of allocating.
	//fdlint:allow clonefields recycling pool: spare capacity only, never semantics
	itemFree [][]fanItem
	// bucketFree recycles the storage of drained wheel buckets, so that a
	// bucket filled afresh reuses what a drained one grew.
	//fdlint:allow clonefields recycling pool: spare capacity only, never semantics
	bucketFree [][]int32
	// keys and radix are Fanout's sort scratch.
	//fdlint:allow clonefields scratch buffer; contents are dead between Fanout calls
	keys []uint64
	//fdlint:allow clonefields scratch buffer; contents are dead between Fanout calls
	radix []uint64
}

// New returns a simulator whose random source is seeded with seed; a run is
// reproducible from the seed alone.
func New(seed int64) *Simulator {
	s := &Simulator{}
	s.wheel = make([][]int32, wheelSlots)
	s.stream = countingSource{gen: rand.NewSource(seed).(rand.Source64), seed: seed}
	s.rng = rand.New(&s.stream)
	return s
}

// SetSink registers the component that receives messages and answers for
// timer owners. A simulator carries one network; registering a second sink
// panics, since events already queued would be delivered to the wrong one.
func (s *Simulator) SetSink(k Sink) {
	if s.sink != nil {
		panic("des: a sink is already registered")
	}
	s.sink = k
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source. All simulated
// randomness must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.stepped }

// Pending returns the number of callbacks and deliveries currently scheduled,
// including stopped timers not yet reclaimed: a stopped timer is reclaimed
// when its wheel slot drains, or when it reaches the heap's root. A timer
// counts once however often it has been Reset.
func (s *Simulator) Pending() int { return s.pending }

// alloc takes a slab slot from the free list, growing the slab when empty.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.events = append(s.events, event{})
	return int32(len(s.events) - 1)
}

// release recycles a slab slot; the gen bump invalidates outstanding Timers.
// Fan-out item slices go back to the kernel-owned free pool.
func (s *Simulator) release(i int32) {
	e := &s.events[i]
	if e.items != nil {
		s.itemFree = append(s.itemFree, e.items[:0])
	}
	*e = event{gen: e.gen + 1}
	s.free = append(s.free, i)
}

// takeItems pops a fan-out item slice of length n from the free pool,
// falling back to allocation when the pool is empty or its top entry is too
// small.
func (s *Simulator) takeItems(n int) []fanItem {
	if k := len(s.itemFree); k > 0 {
		b := s.itemFree[k-1]
		s.itemFree = s.itemFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]fanItem, n)
}

// clampAt turns a delay into an absolute fire time: negative or overflowing
// delays fire at the current instant.
func (s *Simulator) clampAt(d time.Duration) time.Duration {
	if at := s.now + d; d >= 0 && at >= s.now {
		return at
	}
	return s.now
}

// schedule gives slab slot i, already filled in, its key — fire time at and
// the next n sequence numbers — and queues it in the wheel or the heap.
func (s *Simulator) schedule(i int32, at time.Duration, n int) {
	e := &s.events[i]
	e.at, e.seq = at, s.seq
	s.seq += uint64(n)
	s.pending += n
	s.enqueue(i)
}

const (
	// wheelShift and wheelSlots shape the timer wheel: slots of 2²² ns
	// (about 4.2 ms), 1024 of them, a span of about 4.3 s. The timers the
	// workloads arm run from 100 ms windows to 2 s timeouts, so they fall
	// inside the span, and a timeout pushed back once per heartbeat spends
	// all but the last slot of its period in a bucket, where each re-arm is
	// applied in O(1). A slot is short next to those periods, so what the
	// heap holds of them is about one slot's worth. A timer keyed beyond the
	// span still goes to the heap.
	wheelShift = 22
	wheelSlots = 1 << 10
)

// enqueue queues event i, keyed: a timer keyed in a wheel slot that has not
// been drained, within the span, waits in its bucket; every other event goes
// into the heap. The slot of the current instant has always been drained, so
// an event due now goes into the heap.
func (s *Simulator) enqueue(i int32) {
	e := &s.events[i]
	if e.kind == evTimer {
		if s.wheeled == 0 {
			// An empty wheel moves on to the first slot that has not
			// started, however long the clock ran without it.
			s.cursor = max(s.cursor, int64(s.now>>wheelShift)+1)
		}
		if a := int64(e.at >> wheelShift); a >= s.cursor && a < s.cursor+wheelSlots {
			b := &s.wheel[a&(wheelSlots-1)]
			if *b == nil {
				*b = takeBucket(&s.bucketFree)
			}
			*b = append(*b, i)
			s.wheeled++
			return
		}
	}
	s.push(i)
}

// takeBucket pops spare bucket storage from pool; nil when it has none.
func takeBucket(pool *[][]int32) []int32 {
	k := len(*pool)
	if k == 0 {
		return nil
	}
	b := (*pool)[k-1]
	*pool = (*pool)[:k-1]
	return b
}

// drain empties the wheel's first undrained slot and moves the cursor past
// it. Each timer is disposed of as at any other head (requeue) — a stopped
// one reclaimed, a re-armed one filed under its new key, into a later bucket
// while that lies in the span — and any other is pushed into the heap. A
// timer re-armed into this same bucket, one rotation on, is appended to the
// bucket being read, over entries already read. A bucket left empty gives its
// storage to the pool.
func (s *Simulator) drain() {
	k := s.cursor & (wheelSlots - 1)
	s.cursor++
	b := s.wheel[k]
	s.wheel[k] = b[:0]
	s.wheeled -= len(b)
	for _, i := range b {
		if s.events[i].live() {
			s.push(i)
		} else {
			s.requeue(i)
		}
	}
	if len(s.wheel[k]) == 0 && b != nil {
		s.bucketFree = append(s.bucketFree, b[:0])
		s.wheel[k] = nil
	}
}

// After schedules fn to run d from now. Negative delays are clamped to zero:
// the event runs at the current instant, after already-queued events for
// that instant.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	return s.AfterOwned(d, ident.Nil, fn)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	return s.timerAt(max(t, s.now), ident.Nil, fn)
}

// AfterOwned is After for a timer that belongs to a process: when it comes
// due the kernel asks the sink whether owner is alive, and runs fn only if
// so. A suppressed callback still counts as a step.
func (s *Simulator) AfterOwned(d time.Duration, owner ident.ID, fn func()) *Timer {
	return s.timerAt(s.clampAt(d), owner, fn)
}

func (s *Simulator) timerAt(at time.Duration, owner ident.ID, fn func()) *Timer {
	i := s.alloc()
	e := &s.events[i]
	e.kind, e.fn, e.to = evTimer, fn, owner
	s.schedule(i, at, 1)
	return &Timer{s: s, idx: i, gen: e.gen}
}

// Send schedules the delivery of one message d from now: the sink's Deliver
// is called with exactly these arguments. It orders like After.
func (s *Simulator) Send(d time.Duration, from, to ident.ID, payload any) {
	i := s.alloc()
	e := &s.events[i]
	e.kind, e.from, e.to, e.payload = evMsg, from, to, payload
	s.schedule(i, s.clampAt(d), 1)
}

const (
	// fanKeyIdxBits is how much of a packed fan-out sort key holds the
	// receiver's position; the delay takes the rest.
	fanKeyIdxBits = 16
	fanKeyMaxD    = time.Duration(1) << (63 - fanKeyIdxBits)
	// fanRadixMin is the fan-out width from which the packed keys are radix
	// sorted; below it an insertion sort is cheaper than the radix's
	// per-digit count tables.
	fanRadixMin = 64
)

// Fanout schedules one message to every receiver — a broadcast — as a single
// kernel node. The node is kept sorted by delivery time and always carries
// the key of its earliest undelivered item: a k-receiver broadcast costs one
// slab slot, one sort and one heap entry, and each delivery one re-key of
// that entry. Delivery order is exactly that of k individual Send calls
// issued in slice order. recv is read synchronously and may be reused by the
// caller.
func (s *Simulator) Fanout(from ident.ID, payload any, recv []Receiver) {
	switch len(recv) {
	case 0:
		return
	case 1:
		s.Send(recv[0].D, from, recv[0].To, payload)
		return
	}
	items := s.takeItems(len(recv))
	// Ordering by (at, idx) — a total order, since idx is the receiver's
	// position in recv — is the stable-by-at permutation: equal delivery
	// times keep slice order, which combined with the block of consecutive
	// seqs preserves Send-by-Send FIFO semantics. When every delay and the
	// fan-out width fit, that order is the numeric order of
	// (delay − least delay)<<16 | idx, and sorting plain integers is several
	// times cheaper than sorting items through a comparator. The keys are
	// unique, so every correct sort gives the same permutation.
	packed := len(recv) <= 1<<fanKeyIdxBits && s.now <= math.MaxInt64-fanKeyMaxD
	keys := s.keys[:0]
	dmin := fanKeyMaxD
	for k, r := range recv {
		d := max(r.D, 0)
		if d >= fanKeyMaxD {
			packed = false
			break
		}
		dmin = min(dmin, d)
		keys = append(keys, uint64(d)<<fanKeyIdxBits|uint64(k))
	}
	s.keys = keys[:0]
	if packed {
		var span uint64 // every bit set in some key
		for j := range keys {
			keys[j] -= uint64(dmin) << fanKeyIdxBits
			span |= keys[j]
		}
		if len(keys) >= fanRadixMin {
			keys = s.radixSort(keys, span)
		} else {
			insertionSort(keys)
		}
		at0 := s.now + dmin
		for j, key := range keys {
			k := int32(key & (1<<fanKeyIdxBits - 1))
			items[j] = fanItem{at: at0 + time.Duration(key>>fanKeyIdxBits), to: recv[k].To, idx: k}
		}
	} else {
		for k, r := range recv {
			items[k] = fanItem{at: s.clampAt(r.D), to: r.To, idx: int32(k)}
		}
		slices.SortFunc(items, func(a, b fanItem) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			return cmp.Compare(a.idx, b.idx)
		})
	}
	i := s.alloc()
	e := &s.events[i]
	e.kind, e.from, e.payload, e.items = evFanout, from, payload, items
	s.schedule(i, items[0].at, len(items))
}

// insertionSort sorts keys in place. On the few dozen keys of a fan-out
// below fanRadixMin it beats slices.Sort, which pays for its partitioning
// on every call.
func insertionSort(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// radixSort sorts keys, none of which has a bit outside span, by a
// least-significant-digit radix sort over bytes, ping-ponging between keys
// and the kernel's radix scratch; it returns whichever holds the result. A
// byte that is zero in span — the unused high bits of the receiver index,
// say — costs no pass.
func (s *Simulator) radixSort(keys []uint64, span uint64) []uint64 {
	if cap(s.radix) < len(keys) {
		s.radix = make([]uint64, len(keys))
	}
	src, dst := keys, s.radix[:len(keys)]
	for shift := uint(0); span>>shift != 0; shift += 8 {
		if byte(span>>shift) == 0 {
			continue
		}
		var count [256]int32
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		var sum int32
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// push adds event i to the heap under its current key.
func (s *state) push(i int32) {
	x := entry{at: s.events[i].at, seq: s.events[i].seq, i: i}
	s.heap = append(s.heap, x)
	h, k := s.heap, len(s.heap)-1
	for p := (k - 1) / 2; k > 0 && x.less(&h[p]); k, p = p, (p-1)/2 {
		h[k] = h[p]
	}
	h[k] = x
}

// pop removes the heap's root.
func (s *state) pop() {
	n := len(s.heap) - 1
	x := s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.down(x)
	}
}

// down replaces the heap's root with x and sifts it into place.
func (s *state) down(x entry) {
	h, k := s.heap, 0
	for c := 1; c < len(h); c = 2*k + 1 {
		if r := c + 1; r < len(h) {
			// Which child is less is a coin toss under continuous delays, so
			// it is added, not branched on; a tie of times is rare.
			right := h[r].at < h[c].at
			if h[r].at == h[c].at {
				right = h[r].seq < h[c].seq
			}
			c += b2i(right)
		}
		if !h[c].less(&x) {
			break
		}
		h[k], k = h[c], c
	}
	h[k] = x
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// live reports whether the event can fire under the key it is queued under:
// it is neither stopped nor waiting to be re-keyed.
func (e *event) live() bool { return !e.stopped && e.newSeq == 0 }

// requeue disposes of timer i, which is not live and was just taken from
// where it surfaced: the heap's root or a draining wheel slot. A stopped
// event is reclaimed. A re-armed one takes the key it really fires under,
// never earlier than the one it was queued under, and is queued again in the
// wheel or the heap.
func (s *Simulator) requeue(i int32) {
	e := &s.events[i]
	if e.stopped {
		s.pending--
		s.release(i)
		return
	}
	e.at, e.seq = e.newAt, e.newSeq
	e.newAt, e.newSeq = 0, 0
	s.enqueue(i)
}

// popDue returns the live event with the smallest (at, seq) key if it fires
// at or before limit, or noEvent. The heap's root is brought to a live event —
// stopped and re-armed events are disposed of exactly when they surface, so
// Stop and Reset never search — and then every wheel slot that starts at or
// before both the root and limit is drained into the heap, in slot order, so
// that every timer still in the wheel fires after the event taken. That event
// is the root. A timer or unicast is popped before it fires; a fan-out node
// stays at the root for fire to re-key in place: one sift per delivery
// instead of a pop's and a push's.
func (s *Simulator) popDue(limit time.Duration) int32 {
	for len(s.heap) > 0 && !s.events[s.heap[0].i].live() {
		i := s.heap[0].i
		s.pop()
		s.requeue(i)
	}
	bound := limit
	for s.wheeled > 0 {
		// A drain pushes live events only, so the root stays live.
		if len(s.heap) > 0 {
			bound = min(bound, s.heap[0].at)
		}
		if s.cursor > int64(bound>>wheelShift) {
			break
		}
		s.drain()
	}
	if len(s.heap) == 0 || s.heap[0].at > limit {
		return noEvent
	}
	i := s.heap[0].i
	if s.events[i].kind != evFanout {
		s.pop()
	}
	return i
}

// fire executes event i, which popDue took, advancing virtual time to it.
func (s *Simulator) fire(i int32) {
	e := &s.events[i]
	s.stepped++
	s.pending--
	switch e.kind {
	case evFanout:
		// Deliver the current item, then re-key the node, still at the heap's
		// root, at its next one: a same-instant successor, still the least
		// key, stays there after one comparison. The last item pops it.
		it, from, payload := e.items[e.head], e.from, e.payload
		e.head++
		s.now = it.at
		if int(e.head) < len(e.items) {
			e.at = e.items[e.head].at
			e.seq++
			s.down(entry{at: e.at, seq: e.seq, i: i})
		} else {
			s.pop()
			s.release(i)
		}
		s.sink.Deliver(from, it.to, payload)
	case evMsg:
		from, to, payload := e.from, e.to, e.payload
		s.now = e.at
		s.release(i)
		s.sink.Deliver(from, to, payload)
	default:
		owner, fn := e.to, e.fn
		s.now = e.at
		s.release(i) // consume first: a later Timer.Stop reports false
		if owner == ident.Nil || s.sink.Alive(owner) {
			fn()
		}
	}
}

// Step executes the next pending event, advancing virtual time. It returns
// false when no events remain.
func (s *Simulator) Step() bool {
	i := s.popDue(math.MaxInt64)
	if i == noEvent {
		return false
	}
	s.fire(i)
	return true
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// t. Events scheduled exactly at t do run.
func (s *Simulator) RunUntil(t time.Duration) {
	for i := s.popDue(t); i != noEvent; i = s.popDue(t) {
		s.fire(i)
	}
	s.now = max(s.now, t)
}
