package des

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestEventSize pins the slab's element at 48 bytes on a 64-bit platform:
// a surfacing and a fire each read that much of it, and a table's event
// carries no second key.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("event is %d bytes, want 48", got)
	}
}

func TestEmptySimulator(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step on empty simulator = true")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
	s.Run() // must not hang
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Errorf("RunUntil advanced clock to %v, want 1s", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", s.Steps())
	}
}

// TestSameInstantFIFO: events due at one instant fire in the order they were
// scheduled, and one scheduled for the instant while it runs fires after
// every event already due then.
func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() {
			got = append(got, i)
			if i < 3 {
				s.After(0, func() { got = append(got, 10+i) })
			}
		})
	}
	s.Run()
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var got []string
	s.After(time.Millisecond, func() {
		got = append(got, "a")
		s.After(time.Millisecond, func() { got = append(got, "c") })
		s.After(0, func() { got = append(got, "b") })
	})
	s.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("nested order = %v", got)
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.After(time.Millisecond, func() {
		s.After(-5*time.Second, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
	if s.Now() != time.Millisecond {
		t.Errorf("clock went backwards: %v", s.Now())
	}
}

func TestAtClampedToNow(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(time.Second, func() {
		s.At(time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != time.Second {
		t.Errorf("past At ran at %v, want clamped to 1s", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Error("Stop pending timer = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	s.Run()
	if ran {
		t.Error("stopped event ran")
	}
	var nilTimer *Timer
	if nilTimer.Stop() {
		t.Error("nil Timer.Stop = true")
	}
}

func TestStopAfterRun(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Error("Stop after event ran = true")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		s.After(d, func() { got = append(got, d) })
	}
	s.RunUntil(2 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("events run = %v, want through 2ms inclusive", got)
	}
	if s.Now() != 2*time.Millisecond {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(got) != 3 {
		t.Error("remaining event lost after RunUntil")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// TestReseedIsAFreshStream: the stream is reseeded in place (one generator
// and one *rand.Rand for the kernel's life), and must read exactly as a new
// kernel's does — straight after draws, and after a Restore that still owes
// its replay.
func TestReseedIsAFreshStream(t *testing.T) {
	s := New(1)
	r := s.Rand()
	for i := 0; i < 10; i++ {
		r.Int63()
	}
	snap := s.Snapshot()
	for round := 0; round < 2; round++ {
		s.Reseed(7)
		fresh := New(7)
		for i := 0; i < 100; i++ {
			if got, want := r.Float64(), fresh.Rand().Float64(); got != want {
				t.Fatalf("round %d draw %d after Reseed(7) = %v, a new kernel seeded 7 draws %v", round, i, got, want)
			}
		}
		s.Restore(snap)
		if s.Rand() != r {
			t.Fatal("Restore replaced the *rand.Rand callers hold")
		}
	}
	want := New(1)
	for i := 0; i < 10; i++ {
		want.Rand().Int63()
	}
	if got, want := r.Int63(), want.Rand().Int63(); got != want {
		t.Fatalf("draw 11 of seed 1 after Restore = %d, want %d", got, want)
	}
}

// TestQuickDeterministicSchedule builds a random workload of scheduled,
// nested and canceled events from a seed and checks two simulators replay
// exactly the same trace.
func TestQuickDeterministicSchedule(t *testing.T) {
	runTrace := func(seed int64) []time.Duration {
		r := rand.New(rand.NewSource(seed))
		s := New(seed)
		var tr []time.Duration
		var timers []*Timer
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 2 + r.Intn(5)
			for i := 0; i < n; i++ {
				d := time.Duration(r.Intn(1000)) * time.Microsecond
				tm := s.After(d, func() {
					tr = append(tr, s.Now())
					if depth < 3 && r.Intn(3) == 0 {
						schedule(depth + 1)
					}
				})
				timers = append(timers, tm)
			}
			if len(timers) > 0 && r.Intn(4) == 0 {
				timers[r.Intn(len(timers))].Stop()
			}
		}
		schedule(0)
		s.Run()
		return tr
	}
	f := func(seed int64) bool {
		a, b := runTrace(seed), runTrace(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Times must be non-decreasing.
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPendingSkipsStopped(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	tm.Stop()
	s.RunUntil(3 * time.Millisecond)
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 100; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		s.Run()
	}
}
