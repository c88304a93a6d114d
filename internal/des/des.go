// Package des is a deterministic discrete-event simulation kernel.
//
// It replaces the paper's simulator testbed: experiments run in virtual time
// (no real sleeps), driven by a single-threaded event loop with a seeded
// random source, so every run is exactly reproducible from its seed. The
// kernel executes events in (time, FIFO) order and knows four kinds of
// them: a callback (After/At — fault injectors, experiment drivers), a timer
// owned by a process (AfterOwned — suppressed, but still counted, when the
// Sink says the owner is down), a process's deadline table (Deadlines: many
// timeouts behind one event), and a message (Send, or Fanout for a whole
// broadcast), which the kernel hands to the Sink registered by the network
// model. Messages and deadlines are scheduled as data, not closures: the
// simulator's send → queue → deliver → re-arm path allocates nothing.
//
// The kernel is built for throughput. Events live in a slab recycled through
// a free list, one 48-byte node each: the node's key, the payload (a timer's
// callback is carried there, as a func()), the endpoints, the slot's
// generation, the kind and the stopped flag. A surfacing and a fire read
// nothing of an event beyond its node, though at 48 bytes every other node
// straddles two cache lines. A fan-out's deliveries are kept beside the
// slab, in its slot's entry of a side table (state.fans), which only
// fan-outs read. In steady state a message, a fan-out and a deadline
// allocate nothing; arming a timer still allocates its 16-byte *Timer
// handle.
//
// Every event waits in one binary min-heap keyed inline by (at, seq)
// (state.heap), so a sift compares entries without reading the slab, and
// fires from its root: the heap alone decides the order. An event due at the
// instant it is scheduled carries the newest sequence number, so it fires
// after the events already due then. A broadcast is a single Fanout node:
// its pointer-free items, recycled through a kernel-owned pool, are one
// sorted run of deliveries whose node stays in the heap under the key of its
// next one, so a broadcast-heavy run is a k-way merge of runs through that
// same heap.
//
// A deadline table (Deadlines) is the timeouts of one process — a
// heartbeat monitor's one per peer, its beat and its poll — as per-slot
// (at, seq) keys (state.tables) behind one kernel event. Set and Clear
// behave exactly like Stop and After on a timer per slot: a Set draws the
// sequence number After would have drawn, an expiry is one step, suppressed
// but counted while the owner is down, and a Set while the owner is down
// draws nothing and leaves the slot clear. A table keeps its slots in two
// parts: the run, a linked list in key order that a Set not below its last
// key joins at the end, which is what every heartbeat does to its sender's
// deadline; and the side heap, an indexed min-heap, for every other Set.
// The table records the key its event is queued under, never after its
// least: only a Set below that record moves the event in the kernel's heap,
// and the event takes the table's least key when it surfaces at the root.
// So a push-back is an unlink and an append, and touches neither the slab
// nor the kernel's heap. The package's differential tests hold the kernel
// to a reference scheduler that finds each next event by linear scan and
// runs each slot as a timer.
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
// handler or a crash is while letting messages and deadlines be queued as
// data.
type Sink interface {
	// Deliver hands over a message scheduled with Send or Fanout, at its
	// delivery time.
	Deliver(from, to ident.ID, payload any)
	// Alive reports whether a timer's or a deadline table's owner may run
	// its callback now.
	Alive(owner ident.ID) bool
}

// eventKind says which fields of an event node are in use.
type eventKind uint8

const (
	evTimer  eventKind = iota // payload is the callback, a func(); owned by `to` (ident.Nil: nobody, always runs)
	evMsg                     // (from, to, payload)
	evFanout                  // (from, payload) shared by the slot's fan items[head:]
	evTable                   // a deadline table's least slot: from is the table (its index in state.tables), to its owner
)

// event is one kernel node: a callback, a message, a whole fan-out, or the
// next expiry of a deadline table. Events live in the simulator's slab,
// addressed by index and recycled through a free list; gen invalidates stale
// Timer handles when a slot is reused. For fan-out nodes, (at, seq) always
// hold the key of the earliest undelivered item, and a fan-out node is never
// stopped. A table's event is queued under a key whose time and slot its
// table records, and takes the table's least key when it surfaces, if that
// slot has been taken since. An event is 48 bytes: what a surfacing and a
// fire read of it is here, a fan-out's items are in the slot's fan, beside
// the slab, and a table's keys in its table.
type event struct {
	at  time.Duration
	seq uint64
	// payload is a message's payload, or a timer's callback as a func().
	payload any
	from    ident.ID
	to      ident.ID
	gen     uint32
	kind    eventKind
	stopped bool
}

// fan is a fan-out node's deliveries: the side-table entry (state.fans) of
// the slab slot the node holds. items are sorted by (at, idx); head is the
// next undelivered one.
type fan struct {
	items []fanItem
	head  int32
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
// acts on the kernel's event, so copies of a handle (a checkpoint's, say)
// stay interchangeable.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the event if it has not run yet, reporting whether it was
// still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil {
		return false
	}
	e := &t.s.events[t.idx]
	if e.gen != t.gen || e.stopped {
		return false
	}
	e.stopped = true
	e.payload = nil // release captured state promptly
	return true
}

// state is everything about a Simulator that a run changes — virtual clock,
// sequence counter, the event slab (every in-flight message as data: endpoints
// and payload; every timer with its callback), the fan-out side table, the
// free list, the deadline tables, the heap and the random stream position —
// and so everything a checkpoint holds. It exists as one value so that
// Snapshot and Restore are one copy (state.copyTo) run in the two directions:
// a field added here is checkpointed by being here.
type state struct {
	now     time.Duration
	seq     uint64
	stepped uint64
	pending int            // scheduled callbacks, deliveries and set deadline slots not yet run or reclaimed
	stream  countingSource // the random stream: seed, draw count, generator

	events []event // slab; all event storage, recycled via free
	free   []int32 // recycled slab slots
	// fans is the slab's side table: fans[i] holds the deliveries of the
	// fan-out node in slot i, and is empty for any other slot. It grows only
	// as far as the highest slot a fan-out has held, so a slot's fan is read
	// by fan-outs alone.
	fans []fan
	// tables holds every deadline table, addressed by its Deadlines handle.
	tables []table

	// heap is a binary min-heap, by (at, seq), of every queued event. Every
	// event fires from its root. Entries are keyed by the key the event is
	// queued under, which a stopped event, or a table's event whose table's
	// least key has moved on, keeps until it surfaces at the root. A fan-out node is a sorted run of deliveries,
	// so it holds one entry however many deliveries remain, re-keyed at its
	// next receiver; a deadline table holds one entry however many slots are
	// set.
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
// including stopped timers not yet reclaimed (a stopped timer is reclaimed
// when it reaches the heap's root), plus the deadline slots that are set. A
// slot counts once however often it is Set.
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
// A fan-out's item slice goes back to the kernel-owned free pool.
func (s *Simulator) release(i int32) {
	e := &s.events[i]
	if e.kind == evFanout {
		f := &s.fans[i]
		s.itemFree = append(s.itemFree, f.items[:0])
		*f = fan{}
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
// the next n sequence numbers — and queues it in the heap.
func (s *Simulator) schedule(i int32, at time.Duration, n int) {
	e := &s.events[i]
	e.at, e.seq = at, s.seq
	s.seq += uint64(n)
	s.pending += n
	s.push(i)
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
	e.kind, e.payload, e.to = evTimer, fn, owner
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
	if n := int(i) + 1; n > len(s.fans) {
		s.fans = append(s.fans, make([]fan, n-len(s.fans))...)
	}
	s.fans[i].items = items
	e := &s.events[i]
	e.kind, e.from, e.payload = evFanout, from, payload
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

// popDue returns the live event with the smallest (at, seq) key if it fires
// at or before limit, or noEvent. The heap's root is brought to a live event
// first: a stopped event is reclaimed and a table's event queued under a key
// before its table's least takes that least key (settle), sifted down in
// place, exactly when it surfaces, so neither Stop nor Set searches the
// heap. A timer or unicast is popped before it fires; a fan-out node or a
// table's event stays at the root for fire to re-key in place.
func (s *Simulator) popDue(limit time.Duration) int32 {
	for len(s.heap) > 0 {
		i := s.heap[0].i
		e := &s.events[i]
		if e.stopped {
			s.pop()
			if e.kind != evTable { // a table's event is no callback of its own
				s.pending--
			}
			s.release(i)
		} else if e.kind != evTable || !s.settle(i) {
			break
		}
	}
	if len(s.heap) == 0 || s.heap[0].at > limit {
		return noEvent
	}
	i := s.heap[0].i
	if k := s.events[i].kind; k != evFanout && k != evTable {
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
		f := &s.fans[i]
		it, from, payload := f.items[f.head], e.from, e.payload
		f.head++
		s.now = it.at
		if int(f.head) < len(f.items) {
			e.at = f.items[f.head].at
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
	case evTable:
		s.now = e.at
		s.expire(i)
	default:
		owner, fn := e.to, e.payload.(func())
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
