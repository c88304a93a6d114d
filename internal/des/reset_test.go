package des

import (
	"fmt"
	"testing"
	"time"

	"asyncfd/internal/raceflag"
)

// reset_test.go pins Timer.Reset case by case; the differential harness
// (fuzz_test.go) holds it to Stop + After on random scripts.

const ms = time.Millisecond

// fireLog records "name@time" per callback.
type fireLog struct {
	s   *Simulator
	got []string
}

func (l *fireLog) fn(name string) func() {
	return func() { l.got = append(l.got, fmt.Sprintf("%s@%v", name, l.s.Now())) }
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

func TestResetPushesBack(t *testing.T) {
	l := newFireLog()
	s := l.s
	tm := s.After(2*ms, l.fn("t"))
	s.After(3*ms, l.fn("a"))
	s.RunUntil(ms)
	if !tm.Reset(4 * ms) { // now due at 5ms
		t.Fatal("Reset of a pending timer = false")
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2: a re-armed timer counts once", s.Pending())
	}
	s.RunUntil(3 * ms)
	l.want(t, "a@3ms")
	// Pushed back again, then pulled forward: still no earlier than the
	// key the event is queued under (5ms by now).
	if !tm.Reset(5*ms) || !tm.Reset(2*ms) {
		t.Fatal("Reset to a time at or after the queued key = false")
	}
	s.Run()
	l.want(t, "a@3ms", "t@5ms")
	if s.Steps() != 2 || s.Pending() != 0 {
		t.Errorf("Steps = %d, Pending = %d, want 2 and 0", s.Steps(), s.Pending())
	}
}

func TestResetRefusals(t *testing.T) {
	l := newFireLog()
	s := l.s
	fired := s.After(ms, l.fn("fired"))
	stopped := s.After(5*ms, l.fn("stopped"))
	early := s.After(5*ms, l.fn("early"))
	s.RunUntil(2 * ms)
	stopped.Stop()
	if fired.Reset(ms) {
		t.Error("Reset after the timer fired = true")
	}
	if stopped.Reset(ms) {
		t.Error("Reset after Stop = true")
	}
	if early.Reset(2 * ms) { // 4ms < the 5ms it is queued under
		t.Error("Reset to before the queued key = true")
	}
	s.Run()
	l.want(t, "fired@1ms", "early@5ms") // the refusals changed nothing
}

func TestStopAfterReset(t *testing.T) {
	l := newFireLog()
	tm := l.s.After(ms, l.fn("t"))
	tm.Reset(2 * ms)
	if !tm.Stop() || tm.Stop() || tm.Reset(ms) {
		t.Error("Stop of a re-armed timer must report true once, and end it")
	}
	l.s.Run()
	l.want(t)
	if l.s.Pending() != 0 {
		t.Errorf("Pending = %d after the stopped timer surfaced", l.s.Pending())
	}
}

// TestResetDueNow re-arms a timer due at the current instant: like Stop +
// After(0) it goes behind everything already scheduled for the instant.
func TestResetDueNow(t *testing.T) {
	l := newFireLog()
	s := l.s
	s.After(ms, func() {
		tm := s.After(0, l.fn("t"))
		s.After(0, l.fn("a"))
		if !tm.Reset(0) {
			t.Error("Reset(0) of a timer due now = false")
		}
		s.After(0, l.fn("b"))
	})
	s.Run()
	l.want(t, "a@1ms", "t@1ms", "b@1ms")
}

// TestResetSurvivesRestore: the re-arm is on the event, so a checkpoint
// taken between Reset and the re-keying replays it, and a Reset made after
// the checkpoint is rolled back with the rest.
func TestResetSurvivesRestore(t *testing.T) {
	l := newFireLog()
	s := l.s
	tm := s.After(2*ms, l.fn("t"))
	s.After(3*ms, l.fn("a"))
	tm.Reset(4 * ms)
	snap := s.Snapshot()
	tm.Reset(6 * ms)
	s.Run()
	l.want(t, "a@3ms", "t@6ms")
	for round := 0; round < 2; round++ {
		l.got = nil
		s.Restore(snap)
		s.Run()
		l.want(t, "a@3ms", "t@4ms")
	}
}

// TestResetRefiledAtDrain: a timer re-armed while it waits in the wheel is
// filed under its new key when its slot drains — into the new key's bucket,
// without passing through the heap.
func TestResetRefiledAtDrain(t *testing.T) {
	l := newFireLog()
	s := l.s
	tm := s.After(10*ms, l.fn("t")) // slot 2
	if !tm.Reset(3 * time.Second) {
		t.Fatal("Reset of a pending timer = false")
	}
	s.RunUntil(2 << wheelShift) // slot 2's start: the slot drains
	if b := s.wheel[(3*time.Second>>wheelShift)&(wheelSlots-1)]; len(s.heap) != 0 || s.wheeled != 1 || len(b) != 1 {
		t.Fatalf("after the drain: %d in the heap, %d in the wheel, %d in the 3 s bucket; want 0, 1, 1",
			len(s.heap), s.wheeled, len(b))
	}
	s.Run()
	l.want(t, "t@3s")
}

// TestAllocsRearmDrain locks the re-arm path of the timer wheel: a pending
// timeout pushed back in place, and the drain of a slot whose timeouts were
// all pushed back — each filed under its new key into a later bucket —
// allocate nothing once the buckets and their pool have grown. None of the
// re-armed timeouts passes through the heap.
func TestAllocsRearmDrain(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	const (
		peers   = 1024
		perSlot = 8 // re-arms per slot: each timeout every 128 slots, about 0.54 s
		timeout = 2 * time.Second
		slot    = time.Duration(1) << wheelShift
	)
	s := New(1)
	fn := func() { t.Fatal("a timeout expired") }
	timers := make([]*Timer, peers)
	for k := range timers {
		timers[k] = s.After(timeout, fn)
	}
	next := 0
	step := func() {
		for j := 0; j < perSlot; j++ {
			if !timers[next%peers].Reset(timeout) {
				t.Fatal("Reset of a pending timeout = false")
			}
			next++
		}
		s.RunUntil(s.Now() + slot)
	}
	for i := 0; i < 2*wheelSlots; i++ { // two rotations
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("%d re-arms and a slot's drain: %v allocations, want 0", perSlot, allocs)
	}
	if s.Pending() != peers || s.wheeled != peers || len(s.heap) != 0 {
		t.Errorf("Pending %d, %d in the wheel, %d in the heap: want every one of %d timeouts in the wheel",
			s.Pending(), s.wheeled, len(s.heap), peers)
	}
}
