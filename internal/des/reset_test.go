package des

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
)

// reset_test.go pins the deadline table (deadlines.go) case by case: a slot
// re-set, pushed back or pulled forward, set out of key order, cleared,
// set while its owner is down, set from its own callback and across a
// checkpoint. The differential harness (fuzz_test.go) holds the table to a
// timer per slot, stopped and armed anew, on random scripts.

const ms = time.Millisecond

// fireLog records "name@time" per callback.
type fireLog struct {
	s   *Simulator
	got []string
}

func (l *fireLog) fn(name string) func() {
	return func() { l.got = append(l.got, fmt.Sprintf("%s@%v", name, l.s.Now())) }
}

// table returns a table of n slots owned by owner whose expiries are logged
// as "name<slot>@time".
func (l *fireLog) table(name string, owner ident.ID, n int) *Deadlines {
	return l.s.Deadlines(owner, n, func(slot int) {
		l.got = append(l.got, fmt.Sprintf("%s%d@%v", name, slot, l.s.Now()))
	})
}

func (l *fireLog) want(t *testing.T, want ...string) {
	t.Helper()
	if fmt.Sprint(l.got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", l.got, want)
	}
}

// newFireLog returns a fire log on a fresh kernel with a testSink.
func newFireLog() *fireLog {
	s, _ := newSunk(1)
	return &fireLog{s: s}
}

// TestResetPushesBack: a slot set again fires at its new time only, and
// counts once in Pending however often it is set; pulled forward below the
// key the table's event is queued under, it still fires on time.
func TestResetPushesBack(t *testing.T) {
	l := newFireLog()
	s := l.s
	d := l.table("d", 1, 2)
	d.Set(0, 2*ms)
	s.After(3*ms, l.fn("a"))
	s.RunUntil(ms)
	d.Set(0, 4*ms) // now due at 5ms
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2: a slot set twice counts once", s.Pending())
	}
	s.RunUntil(3 * ms)
	l.want(t, "a@3ms")
	// Pushed back again, then pulled forward below the 5ms the table's
	// event waits under, and below a timer it must then precede.
	d.Set(0, 5*ms)
	s.After(ms, l.fn("b"))
	d.Set(0, 0)
	s.Run()
	l.want(t, "a@3ms", "d0@3ms", "b@4ms")
	if s.Steps() != 3 || s.Pending() != 0 {
		t.Errorf("Steps = %d, Pending = %d, want 3 and 0", s.Steps(), s.Pending())
	}
}

// TestResetRefusals: a Set by an owner that is down draws nothing and leaves
// the slot clear, so nothing fires for it, and the sequence numbers of what
// follows are those of a run without the Set. An expiry while the owner is
// down is suppressed but counted.
func TestResetRefusals(t *testing.T) {
	l := newFireLog()
	s := l.s
	sink := s.sink.(*testSink)
	d := l.table("d", 1, 3)
	d.Set(0, ms)
	d.Set(1, 2*ms)
	s.RunUntil(ms / 2)
	sink.down.Add(1)
	seq := s.seq
	d.Set(1, 5*ms) // refused: slot 1 is cleared
	d.Set(2, 5*ms) // refused: slot 2 stays clear
	if s.seq != seq || s.Pending() != 1 {
		t.Errorf("Sets by a crashed owner drew %d sequence numbers and left %d pending, want 0 and 1", s.seq-seq, s.Pending())
	}
	s.Run()
	l.want(t) // slot 0 expired while its owner was down
	if s.Steps() != 1 || s.Pending() != 0 {
		t.Errorf("Steps = %d, Pending = %d, want 1 (the suppressed expiry) and 0", s.Steps(), s.Pending())
	}
	sink.down.Remove(1)
	d.Set(2, ms)
	s.Run()
	l.want(t, "d2@2ms")
}

// TestStopAfterReset: Clear ends a set slot, the least one included, and the
// table's abandoned event is reclaimed when it surfaces; a cleared table
// costs nothing pending.
func TestStopAfterReset(t *testing.T) {
	l := newFireLog()
	d := l.table("d", ident.Nil, 3)
	d.Set(0, ms)
	d.Set(1, 2*ms)
	d.Set(2, 3*ms)
	d.Clear(0) // the least slot
	d.Clear(0) // already clear
	l.s.RunUntil(2 * ms)
	l.want(t, "d1@2ms")
	d.Clear(2)
	l.s.Run()
	l.want(t, "d1@2ms")
	if l.s.Pending() != 0 || len(l.s.heap) != 0 {
		t.Errorf("Pending = %d, %d queued after the cleared table surfaced", l.s.Pending(), len(l.s.heap))
	}
}

// TestResetDueNow sets a slot due at the current instant, from its own
// table's callback: like Stop + After(0) it goes behind everything already
// scheduled for the instant, and the re-keyed table event fires its slots
// in key order.
func TestResetDueNow(t *testing.T) {
	l := newFireLog()
	s := l.s
	var d *Deadlines
	d = s.Deadlines(ident.Nil, 2, func(slot int) {
		l.got = append(l.got, fmt.Sprintf("d%d@%v", slot, s.Now()))
		if len(l.got) == 1 {
			s.After(0, l.fn("a"))
			d.Set(0, 0)
			s.After(0, l.fn("b"))
			d.Set(1, 0)
		}
	})
	d.Set(1, 2*ms)
	d.Set(0, ms)
	s.Run()
	l.want(t, "d0@1ms", "a@1ms", "d0@1ms", "b@1ms", "d1@1ms")
}

// TestResetSurvivesRestore: a table's slots are kernel state, so a
// checkpoint replays them, and Sets made after it are rolled back with the
// rest.
func TestResetSurvivesRestore(t *testing.T) {
	l := newFireLog()
	s := l.s
	d := l.table("d", 1, 2)
	d.Set(0, 2*ms)
	s.After(3*ms, l.fn("a"))
	d.Set(0, 4*ms)
	snap := s.Snapshot()
	d.Set(0, 6*ms)
	d.Set(1, ms)
	s.Run()
	l.want(t, "d1@1ms", "a@3ms", "d0@6ms")
	for round := 0; round < 2; round++ {
		l.got = nil
		s.Restore(snap)
		s.Run()
		l.want(t, "a@3ms", "d0@4ms")
	}
}

// TestAllocsRearmDrain locks the re-arm path of the table: pushing back the
// least slot of a 127-slot table, as a heartbeat does to its sender's
// deadline, and running the clock over the table's re-keyed event allocate
// nothing, and the table holds one kernel event throughout.
func TestAllocsRearmDrain(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const (
		peers   = 127
		timeout = 2 * time.Second
	)
	s := New(1)
	d := s.Deadlines(ident.Nil, peers, func(int) { t.Fatal("a timeout expired") })
	for k := 0; k < peers; k++ {
		d.Set(k, timeout)
	}
	next := 0
	step := func() {
		d.Set(next%peers, timeout)
		next++
		s.RunUntil(s.Now() + timeout/peers/2)
	}
	for i := 0; i < 4*peers; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a re-arm and the clock's advance: %v allocations, want 0", allocs)
	}
	if s.Pending() != peers || len(s.heap) != 1 {
		t.Errorf("Pending %d, %d in the heap: want %d slots behind one event", s.Pending(), len(s.heap), peers)
	}
}

// countWalks makes every Set add the slots it walks past to *walked until
// the test ends.
func countWalks(t *testing.T, walked *int) {
	setTally = func(w int) { *walked += w }
	t.Cleanup(func() { setTally = nil })
}

// TestPushBackLeavesKernel: pushing back the least slot of a 127-slot table
// again and again, as heartbeats do, is an unlink and a link at the tail,
// walking past nothing. The kernel's heap and the table's slab event are
// left as they were, the event still queued under the first slot's key, and
// nothing is allocated.
func TestPushBackLeavesKernel(t *testing.T) {
	const (
		peers   = 127
		timeout = 2 * time.Second
	)
	s := New(1)
	d := s.Deadlines(ident.Nil, peers, func(int) { t.Fatal("a timeout expired") })
	for k := 0; k < peers; k++ {
		d.Set(k, timeout)
	}
	s.After(timeout/2, func() {})
	tb := &s.tables[d.t]
	heap, ev := slices.Clone(s.heap), s.events[tb.ev]
	walked := 0
	countWalks(t, &walked)
	pushBack := func() { d.Set(int(tb.list.Head()), timeout) }
	for i := 0; i < 3*peers; i++ {
		pushBack()
	}
	allocs := testing.AllocsPerRun(100, pushBack)
	if !raceflag.Enabled && allocs != 0 {
		t.Errorf("a push-back: %v allocations, want 0", allocs)
	}
	if !slices.Equal(s.heap, heap) || s.events[tb.ev] != ev {
		t.Errorf("pushing back moved the kernel: heap %v, event %+v; was %v, %+v", s.heap, s.events[tb.ev], heap, ev)
	}
	if walked != 0 || s.Pending() != peers+1 {
		t.Errorf("the push-backs walked past %d slots, Pending %d: want none walked and %d pending", walked, s.Pending(), peers+1)
	}
	checkSlabInvariants(t, "after the push-backs", s)
}

// TestSetBelowHeadWalksNothing: a monitor's beat, due Δ from now, set again
// and again below 127 peers' deadlines Θ = 2Δ from now, links at the head at
// once, walking past none of them. Its key is the one the table's event is
// queued under, so the kernel's heap and the event are left as they were,
// and nothing is allocated.
func TestSetBelowHeadWalksNothing(t *testing.T) {
	const (
		peers    = 127
		interval = time.Second
	)
	s := New(1)
	d := s.Deadlines(ident.Nil, peers+1, func(int) { t.Fatal("a timeout expired") })
	for k := 1; k <= peers; k++ {
		d.Set(k, 2*interval)
	}
	d.Set(0, interval)
	s.After(interval/2, func() {})
	tb := &s.tables[d.t]
	heap, ev := slices.Clone(s.heap), s.events[tb.ev]
	walked := 0
	countWalks(t, &walked)
	beat := func() { d.Set(0, interval) }
	for i := 0; i < 3*peers; i++ {
		beat()
	}
	allocs := testing.AllocsPerRun(100, beat)
	if !raceflag.Enabled && allocs != 0 {
		t.Errorf("a beat: %v allocations, want 0", allocs)
	}
	if !slices.Equal(s.heap, heap) || s.events[tb.ev] != ev {
		t.Errorf("setting the beat moved the kernel: heap %v, event %+v; was %v, %+v", s.heap, s.events[tb.ev], heap, ev)
	}
	if keys := tb.keys(); walked != 0 || keys[0].i != 0 || keys[len(keys)-1].i != peers {
		t.Errorf("the beats walked past %d slots; head %d, tail %d: want none walked, the beat at the head and the last peer at the tail", walked, keys[0].i, keys[len(keys)-1].i)
	}
	checkSlabInvariants(t, "after the beats", s)
}

// TestOutOfOrderSetFiresInKeyOrder: slots set out of key order are linked
// after a walk from the tail or at the head, and every slot fires in
// (at, seq) order: same-instant slots, and a timer tied with them, in the
// order they were set, after a Clear and again from a checkpoint.
func TestOutOfOrderSetFiresInKeyOrder(t *testing.T) {
	l := newFireLog()
	s := l.s
	d := l.table("d", 1, 8)
	d.Set(0, 5*ms) // the first key
	d.Set(1, 3*ms) // below the head: linked there
	d.Set(2, 3*ms) // tied with slot 1, set after it: walks back to it
	d.Set(3, 7*ms) // the tail
	d.Set(4, ms)   // the least: linked at the head
	d.Set(5, 5*ms) // tied with slot 0, set after it
	s.After(3*ms, l.fn("a"))
	d.Set(6, 3*ms) // tied with slots 1 and 2 and the timer, set after them
	d.Clear(2)
	d.Set(7, 9*ms) // the tail
	d.Set(7, 6*ms) // back before slot 3
	want := " 4(1000000,4) 1(3000000,1) 6(3000000,7) 0(5000000,0) 5(5000000,5) 7(6000000,9) 3(7000000,3)"
	if got := s.tables[d.t].order(); got != want {
		t.Fatalf("the list holds [%s], want [%s]", got, want)
	}
	checkSlabInvariants(t, "before the checkpoint", s)
	snap := s.Snapshot()
	for round := 0; round < 3; round++ {
		l.got = nil
		if round > 0 {
			s.Restore(snap)
		}
		s.Run()
		l.want(t, "d4@1ms", "d1@3ms", "a@3ms", "d6@3ms", "d0@5ms", "d5@5ms", "d7@6ms", "d3@7ms")
		checkSlabInvariants(t, "drained", s)
	}
}
