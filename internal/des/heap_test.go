package des

import "fmt"

// heap_test.go holds the reference eventQueue and the one way it gets into a
// kernel. Production code builds ladder-backed simulators only; every test
// that compares the two runs over `kernels`.

// kernel is one way of building a simulator, named after the eventQueue it
// runs on.
type kernel struct {
	name string
	new  func(seed int64) *Simulator
}

// kernels are the two simulators the differential harness holds equal: New
// as shipped, and New with the binary heap installed over the ladder.
var kernels = []kernel{
	{"ladder", New},
	{"heap", newHeapSim},
}

// newHeapSim is New on the heap reference. The swap must happen before
// anything is scheduled; the check keeps the harness from ever comparing
// the ladder with itself.
func newHeapSim(seed int64) *Simulator {
	s := New(seed)
	s.queue = &heapQueue{s: &s.state}
	if got := queueName(s); got != "heap" {
		panic("des: heap reference not installed, kernel runs on " + got)
	}
	return s
}

// queueName says which eventQueue a simulator runs on, by the names kernels
// uses.
func queueName(s *Simulator) string {
	switch s.queue.(type) {
	case *heapQueue:
		return "heap"
	case *ladderQueue:
		return "ladder"
	default:
		return fmt.Sprintf("%T", s.queue)
	}
}

var _ eventQueue = (*heapQueue)(nil)

// heapQueue is the binary-heap reference eventQueue: the kernel's original
// timing structure, byte-for-byte the same sift logic it always had.
type heapQueue struct {
	s *state
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
func (q *heapQueue) clone(owner *state) eventQueue {
	return &heapQueue{s: owner, h: append([]int32(nil), q.h...)}
}

// indices returns every queued slab index, in no particular order — test
// hook for the slab-release invariant, mirroring ladderQueue.indices.
func (q *heapQueue) indices() []int32 {
	return append([]int32(nil), q.h...)
}
