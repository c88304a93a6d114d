package des

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"asyncfd/internal/ident"
)

// testSink is the Sink of the kernel's own tests. A message's payload is a
// func(to ident.ID) that the sink runs at delivery, so a test tells
// deliveries apart the way it tells timer callbacks apart: by closure. down
// are the timer owners that are not alive.
type testSink struct{ down ident.Set }

func (k *testSink) Deliver(_, to ident.ID, payload any) { payload.(func(ident.ID))(to) }

func (k *testSink) Alive(owner ident.ID) bool { return !k.down.Has(owner) }

// newSunk returns a simulator with a testSink registered.
func newSunk(seed int64) (*Simulator, *testSink) { return sunk(New(seed)) }

// sunk registers a testSink with s.
func sunk(s *Simulator) (*Simulator, *testSink) {
	k := &testSink{}
	s.SetSink(k)
	return s, k
}

// receivers builds a Fanout argument from delays: receiver k is process k.
func receivers(delays ...time.Duration) []Receiver {
	recv := make([]Receiver, len(delays))
	for k, d := range delays {
		recv[k] = Receiver{D: d, To: ident.ID(k)}
	}
	return recv
}

// TestFanoutMatchesSend checks that a Fanout delivers exactly as the same
// messages scheduled with individual Send calls, including FIFO ties and
// interleaving with independently scheduled events — on the packed-key sort
// and on the comparator it falls back to when a delay does not fit a key.
func TestFanoutMatchesSend(t *testing.T) {
	runTrace := func(seed int64, fanned bool, unit time.Duration) []int {
		r := rand.New(rand.NewSource(seed))
		s, _ := newSunk(seed)
		var tr []int
		n := 2 + r.Intn(8)
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(r.Intn(4)-1) * unit // -unit: clamped to now
		}
		// Competing plain events around the fan-out's time range.
		for i := 0; i < 5; i++ {
			i := i
			s.After(time.Duration(r.Intn(5))*unit, func() { tr = append(tr, 100+i) })
		}
		deliver := func(to ident.ID) { tr = append(tr, int(to)) }
		if fanned {
			s.Fanout(7, deliver, receivers(delays...))
		} else {
			for i, d := range delays {
				s.Send(d, 7, ident.ID(i), deliver)
			}
		}
		// More events scheduled after, including same instants.
		for i := 0; i < 5; i++ {
			i := i
			s.After(time.Duration(r.Intn(5))*unit, func() { tr = append(tr, 200+i) })
		}
		s.Run()
		return tr
	}
	for _, unit := range []time.Duration{time.Millisecond, fanKeyMaxD} {
		f := func(seed int64) bool {
			a, b := runTrace(seed, true, unit), runTrace(seed, false, unit)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("unit %v: %v", unit, err)
		}
	}
}

// TestFanoutOverflowingDelay pins the clamp both sort paths share with
// After: a delay that overflows the clock delivers at the current instant.
func TestFanoutOverflowingDelay(t *testing.T) {
	s, _ := newSunk(1)
	s.RunUntil(time.Hour)
	var got []ident.ID
	s.Fanout(0, func(to ident.ID) { got = append(got, to) },
		receivers(time.Millisecond, time.Duration(1<<63-1), 0))
	s.RunUntil(time.Hour)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered at the current instant: %v, want [1 2]", got)
	}
}

func TestFanoutSameInstantBurst(t *testing.T) {
	s, _ := newSunk(1)
	var got []int
	s.After(time.Millisecond, func() {
		s.Fanout(0, func(to ident.ID) { got = append(got, int(to)) }, receivers(make([]time.Duration, 10)...))
		// Scheduled after the fan-out: must run after every delivery.
		s.After(0, func() { got = append(got, 99) })
	})
	s.Run()
	if len(got) != 11 || got[10] != 99 {
		t.Fatalf("burst order = %v", got)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("burst order = %v, want FIFO then 99", got)
		}
	}
	if s.Now() != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", s.Now())
	}
}

func TestFanoutNestedScheduling(t *testing.T) {
	s, _ := newSunk(1)
	var got []string
	s.Fanout(0, func(to ident.ID) {
		got = append(got, []string{"a", "a2", "c"}[to])
		if to == 0 {
			s.After(0, func() { got = append(got, "b") })
		}
	}, receivers(time.Millisecond, time.Millisecond, 2*time.Millisecond))
	s.Run()
	want := []string{"a", "a2", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFanoutEmptyAndSingle(t *testing.T) {
	s, _ := newSunk(1)
	s.Fanout(0, nil, nil)
	ran := false
	s.Fanout(3, func(to ident.ID) { ran = to == 5 }, []Receiver{{D: time.Millisecond, To: 5}})
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if !ran {
		t.Error("single-receiver fan-out did not deliver to its receiver")
	}
}

func TestFanoutRunUntilBoundary(t *testing.T) {
	s, _ := newSunk(1)
	var got []ident.ID
	s.Fanout(0, func(to ident.ID) { got = append(got, to) }, receivers(time.Millisecond, 3*time.Millisecond))
	s.RunUntil(2 * time.Millisecond)
	if len(got) != 1 || s.Pending() != 1 {
		t.Fatalf("got %v pending %d, want only the 1ms delivery", got, s.Pending())
	}
	s.Run()
	if len(got) != 2 {
		t.Error("remaining fan-out item lost after RunUntil")
	}
}

// TestSendCarriesEndpoints checks the sink sees a message's own (from, to,
// payload), for unicast and fan-out alike.
func TestSendCarriesEndpoints(t *testing.T) {
	s := New(1)
	k := &recordingSink{}
	s.SetSink(k)
	s.Send(time.Millisecond, 1, 2, "u")
	s.Fanout(3, "b", []Receiver{{D: 2 * time.Millisecond, To: 4}, {D: 2 * time.Millisecond, To: 5}})
	s.Run()
	want := []delivery{{1, 2, "u"}, {3, 4, "b"}, {3, 5, "b"}}
	if len(k.got) != len(want) {
		t.Fatalf("delivered %v, want %v", k.got, want)
	}
	for i := range want {
		if k.got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", k.got, want)
		}
	}
}

type delivery struct {
	from, to ident.ID
	payload  any
}

type recordingSink struct{ got []delivery }

func (k *recordingSink) Deliver(from, to ident.ID, payload any) {
	k.got = append(k.got, delivery{from, to, payload})
}

func (k *recordingSink) Alive(ident.ID) bool { return true }

// TestOwnedTimer checks that the kernel asks the sink about a timer's owner
// when the timer comes due — not when it was armed — and that a suppressed
// callback still counts as a step.
func TestOwnedTimer(t *testing.T) {
	s, k := newSunk(1)
	var ran []int
	s.AfterOwned(time.Millisecond, 1, func() { ran = append(ran, 1) })
	s.AfterOwned(2*time.Millisecond, 2, func() { ran = append(ran, 2) })
	s.AfterOwned(3*time.Millisecond, 2, func() { ran = append(ran, 3) })
	k.down.Add(2)
	s.RunUntil(2 * time.Millisecond)
	k.down.Remove(2)
	s.Run()
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 3 {
		t.Errorf("ran %v, want [1 3]: owner 2 was down at 2ms only", ran)
	}
	if s.Steps() != 3 {
		t.Errorf("Steps = %d, want 3: a suppressed timer is a step", s.Steps())
	}
}

// TestSecondSinkPanics: events already queued would reach the wrong sink.
func TestSecondSinkPanics(t *testing.T) {
	s, _ := newSunk(1)
	defer func() {
		if recover() == nil {
			t.Error("registering a second sink did not panic")
		}
	}()
	s.SetSink(&testSink{})
}

// TestSlabRecycled checks that steady-state scheduling reuses slab slots
// instead of growing storage without bound.
func TestSlabRecycled(t *testing.T) {
	s := New(1)
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 10; i++ {
			s.After(time.Duration(i)*time.Microsecond, func() {})
		}
		s.Run()
	}
	if len(s.events) > 64 {
		t.Errorf("slab grew to %d slots for a working set of 10", len(s.events))
	}
}

// TestStaleTimerAfterReuse checks that a Timer for a consumed event stays
// inert even after its slab slot has been recycled for a new event.
func TestStaleTimerAfterReuse(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	ran := false
	s.After(0, func() { ran = true }) // reuses the freed slot
	if tm.Stop() || tm.Reset(time.Millisecond) {
		t.Error("stale Timer.Stop or Reset = true")
	}
	s.Run()
	if !ran {
		t.Error("stale Stop cancelled an unrelated event in the reused slot")
	}
}
