package des

// queue.go is the kernel's pluggable timing structure. The Simulator splits
// event *storage* (the slab) from event *ordering*: same-instant events
// drain through the FIFO ready bucket and the front slot without ever
// touching a priority structure, and everything scheduled for a later
// instant goes through an eventQueue keyed by (at, seq).
//
// Two implementations exist. The binary heap is the reference: the original
// kernel structure, kept verbatim as the ordering oracle that the
// differential harness (TestQueueDifferential, FuzzQueueEquivalence, the
// internal/exp sweep-identity test) checks the calendar/ladder queue
// against. The ladder queue (ladder.go) is the default: amortized O(1)
// push/pop on the dense near-term horizons the experiments generate.

import "sync/atomic"

// QueueKind selects an eventQueue implementation for a Simulator.
type QueueKind int32

const (
	// QueueLadder is the calendar-queue (ladder) structure: a year of
	// fixed-width buckets over the near horizon, child rungs that re-spawn
	// as the epoch advances, and a sorted bottom drain. The default.
	QueueLadder QueueKind = iota
	// QueueHeap is the binary-heap reference implementation: O(log n)
	// push/pop, the ordering oracle the ladder is tested against.
	QueueHeap
)

// String implements fmt.Stringer.
func (k QueueKind) String() string {
	switch k {
	case QueueLadder:
		return "ladder"
	case QueueHeap:
		return "heap"
	default:
		return "QueueKind(?)"
	}
}

// defaultQueue holds the process-wide default QueueKind used by New when no
// WithQueue option is given. Atomic so the differential tests may flip it
// before fanning out concurrent simulations.
var defaultQueue atomic.Int32 // QueueKind; zero value = QueueLadder

// DefaultQueue reports the process-wide default queue implementation.
func DefaultQueue() QueueKind { return QueueKind(defaultQueue.Load()) }

// SetDefaultQueue changes the default queue implementation used by New.
// Existing simulators are unaffected.
func SetDefaultQueue(k QueueKind) { defaultQueue.Store(int32(k)) }

// Option configures a Simulator at construction time.
type Option func(*Simulator)

// WithQueue selects the timing-queue implementation for this simulator.
// Event execution order is identical under every QueueKind — the
// differential harness enforces it — so the choice is purely a performance
// knob.
func WithQueue(k QueueKind) Option {
	return func(s *Simulator) { s.queueKind = k }
}

// eventQueue orders pending far-horizon events — slab indices keyed by
// (at, seq) — for the Simulator. Contract:
//
//   - push is called with an index whose at is no earlier than the
//     simulator's now at call time (fresh same-instant events go to the
//     ready bucket instead), and an index's key never mutates while queued
//     (fan-out nodes and re-armed timers re-key only between a pop and the
//     following push);
//   - popMin/peekMin return the queued index with the smallest (at, seq)
//     key, or noEvent when empty — stopped and re-armed events included, so
//     Stop and Reset stay O(1); the kernel disposes of them when they
//     surface at the head (Simulator.popDue), the same way under every
//     implementation;
//   - len reports the queued element count (stopped-but-unreclaimed
//     included), used by invariant checks and tests;
//   - clone returns a deep copy of the ordering state bound to owner's slab,
//     sharing no mutable storage with the receiver — the checkpoint half of
//     Simulator.Snapshot/Fork. Capacity-only pools need not be copied.
type eventQueue interface {
	push(i int32)
	popMin() int32
	peekMin() int32
	len() int
	clone(owner *Simulator) eventQueue
}

// newEventQueue builds the QueueKind's implementation bound to s's slab.
func newEventQueue(k QueueKind, s *Simulator) eventQueue {
	if k == QueueHeap {
		return &heapQueue{s: s}
	}
	return &ladderQueue{s: s}
}

// heapQueue is the binary-heap reference eventQueue: the kernel's original
// timing structure, byte-for-byte the same sift logic it always had.
type heapQueue struct {
	s *Simulator
	h []int32
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) push(i int32) {
	q.h = append(q.h, i)
	h := q.h
	s := q.s
	k := len(h) - 1
	for k > 0 {
		p := (k - 1) / 2
		if !s.less(h[k], h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (q *heapQueue) popMin() int32 {
	if len(q.h) == 0 {
		return noEvent
	}
	h := q.h
	s := q.s
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	h = q.h
	k := 0
	for {
		l := 2*k + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(h[r], h[l]) {
			m = r
		}
		if !s.less(h[m], h[k]) {
			break
		}
		h[k], h[m] = h[m], h[k]
		k = m
	}
	return top
}

func (q *heapQueue) peekMin() int32 {
	if len(q.h) == 0 {
		return noEvent
	}
	return q.h[0]
}

// clone deep-copies the heap array; the sift order is a pure function of the
// push/pop history, so the copy is byte-for-byte the same structure.
func (q *heapQueue) clone(owner *Simulator) eventQueue {
	return &heapQueue{s: owner, h: append([]int32(nil), q.h...)}
}

// indices returns every queued slab index, in no particular order — test
// hook for the slab-release invariant, mirroring ladderQueue.indices.
func (q *heapQueue) indices() []int32 {
	return append([]int32(nil), q.h...)
}
