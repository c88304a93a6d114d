package des

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"asyncfd/internal/ident"
)

// model_test.go holds the reference scheduler the kernel is held to, and the
// interface through which the script harness (fuzz_test.go) drives either.

// sched is what a script drives: the kernel, as a kernelSched, or the model.
type sched interface {
	Now() time.Duration
	Steps() uint64
	Pending() int
	Rand() *rand.Rand
	Step() bool
	RunUntil(t time.Duration)
	Send(d time.Duration, from, to ident.ID, payload any)
	Fanout(from ident.ID, payload any, recv []Receiver)
	after(d time.Duration, owner ident.ID, fn func()) timer
	at(t time.Duration, fn func()) timer
	deadlines(owner ident.ID, n int, fire func(slot int)) deadlines
}

// timer is a handle a script may stop.
type timer interface{ Stop() bool }

// deadlines is a deadline table a script may set and clear.
type deadlines interface {
	Set(slot int, d time.Duration)
	Clear(slot int)
}

// kernelSched is the kernel as a sched.
type kernelSched struct{ *Simulator }

func (k kernelSched) after(d time.Duration, owner ident.ID, fn func()) timer {
	return k.AfterOwned(d, owner, fn)
}

func (k kernelSched) at(t time.Duration, fn func()) timer { return k.At(t, fn) }

func (k kernelSched) deadlines(owner ident.ID, n int, fire func(slot int)) deadlines {
	return k.Deadlines(owner, n, fire)
}

// onKernel and onModel build the two schedulers a script runs on, seeded 1
// and reporting to sink.
func onKernel(sink *testSink) sched {
	s := New(1)
	s.SetSink(sink)
	return kernelSched{s}
}

func onModel(sink *testSink) sched {
	return &model{rng: rand.New(rand.NewSource(1)), sink: sink}
}

// model is the reference scheduler: every pending event in one slice, and
// each step fires the one with the least (at, seq), found by linear scan. A
// Fanout is the k Sends it stands for and a deadline table is a timer per
// slot, set by Stop + After, so none of the kernel's heap, fan-out nodes,
// tables or lazy re-keying is in it.
// It draws sequence numbers and random numbers as the kernel does, so the two
// run a script to the same fire order, Now() and Steps(). Its Pending()
// counts live events only: it has no stopped events to reclaim.
type model struct {
	now     time.Duration
	seq     uint64
	steps   uint64
	rng     *rand.Rand
	sink    Sink
	pending []*modelEvent
}

// modelEvent is a pending callback (fn set) or message.
type modelEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	owner    ident.ID // a callback's owner; ident.Nil is nobody
	from, to ident.ID
	payload  any
}

func (m *model) Now() time.Duration { return m.now }
func (m *model) Steps() uint64      { return m.steps }
func (m *model) Pending() int       { return len(m.pending) }
func (m *model) Rand() *rand.Rand   { return m.rng }

// add queues e at at, clamped to now, under the next sequence number.
func (m *model) add(at time.Duration, e *modelEvent) *modelEvent {
	e.at, e.seq = max(at, m.now), m.seq
	m.seq++
	m.pending = append(m.pending, e)
	return e
}

// in is the fire time d from now; a negative or overflowing delay is now.
func (m *model) in(d time.Duration) time.Duration {
	if d < 0 || m.now+d < m.now {
		return m.now
	}
	return m.now + d
}

func (m *model) after(d time.Duration, owner ident.ID, fn func()) timer {
	return &modelTimer{m: m, e: m.add(m.in(d), &modelEvent{fn: fn, owner: owner})}
}

func (m *model) at(t time.Duration, fn func()) timer {
	return &modelTimer{m: m, e: m.add(t, &modelEvent{fn: fn, owner: ident.Nil})}
}

func (m *model) Send(d time.Duration, from, to ident.ID, payload any) {
	m.add(m.in(d), &modelEvent{from: from, to: to, payload: payload})
}

func (m *model) Fanout(from ident.ID, payload any, recv []Receiver) {
	for _, r := range recv {
		m.Send(r.D, from, r.To, payload)
	}
}

func (m *model) Step() bool { return m.fireNext(math.MaxInt64) }

func (m *model) RunUntil(t time.Duration) {
	for m.fireNext(t) {
	}
	m.now = max(m.now, t)
}

// fireNext fires the pending event with the least (at, seq) if it is due at
// or before limit, and reports whether it did.
func (m *model) fireNext(limit time.Duration) bool {
	k := -1
	for j, e := range m.pending {
		if k < 0 || e.at < m.pending[k].at || e.at == m.pending[k].at && e.seq < m.pending[k].seq {
			k = j
		}
	}
	if k < 0 || m.pending[k].at > limit {
		return false
	}
	e := m.pending[k]
	m.pending = slices.Delete(m.pending, k, k+1)
	m.now = e.at
	m.steps++
	switch {
	case e.fn == nil:
		m.sink.Deliver(e.from, e.to, e.payload)
	case e.owner == ident.Nil || m.sink.Alive(e.owner):
		e.fn()
	}
	return true
}

// modelTimer is a model callback's handle.
type modelTimer struct {
	m *model
	e *modelEvent
}

func (t *modelTimer) Stop() bool {
	k := slices.Index(t.m.pending, t.e)
	if k < 0 {
		return false
	}
	t.m.pending = slices.Delete(t.m.pending, k, k+1)
	return true
}

func (m *model) deadlines(owner ident.ID, n int, fire func(slot int)) deadlines {
	return &modelTable{m: m, owner: owner, fire: fire, slots: make([]*modelTimer, n)}
}

// modelTable is a deadline table as the timers it stands for: one per slot,
// the one its last Set armed.
type modelTable struct {
	m     *model
	owner ident.ID
	fire  func(slot int)
	slots []*modelTimer
}

// Set is Stop and After, where After is the network model's: a process that
// is down arms nothing.
func (t *modelTable) Set(slot int, d time.Duration) {
	t.Clear(slot)
	if t.owner != ident.Nil && !t.m.sink.Alive(t.owner) {
		return
	}
	t.slots[slot] = t.m.after(d, t.owner, func() { t.fire(slot) }).(*modelTimer)
}

func (t *modelTable) Clear(slot int) {
	if tm := t.slots[slot]; tm != nil {
		tm.Stop()
		t.slots[slot] = nil
	}
}
