package des

import (
	"math/rand"
	"testing"
	"time"
)

// ladder_test.go: property tests for the calendar/ladder queue internals —
// epoch advance across rung boundaries, bucket-width re-sizing under skewed
// horizons, and slab release correctness. These drive the ladderQueue
// directly (table-driven, no heap oracle involved); the differential
// harness in fuzz_test.go and internal/exp covers heap equivalence.

// rawLadder returns a ladderQueue bound to a host slab plus an add helper
// that allocates a slab event with the next seq and pushes it.
func rawLadder() (*Simulator, *ladderQueue, func(at time.Duration) int32) {
	s := New(1) // host slab only; s.queue is unused here
	q := &ladderQueue{s: &s.state}
	add := func(at time.Duration) int32 {
		i := s.alloc()
		e := &s.events[i]
		e.at, e.seq = at, s.seq
		s.seq++
		q.push(i)
		return i
	}
	return s, q, add
}

// drainSorted pops n events and asserts strict (at, seq) order.
func drainSorted(t *testing.T, s *Simulator, q *ladderQueue, n int) []int32 {
	t.Helper()
	out := make([]int32, 0, n)
	for k := 0; k < n; k++ {
		i := q.popMin()
		if i == noEvent {
			t.Fatalf("queue ran dry after %d of %d pops", k, n)
		}
		if len(out) > 0 && !s.less(out[len(out)-1], i) {
			prev := out[len(out)-1]
			t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)", k,
				s.events[i].at, s.events[i].seq, s.events[prev].at, s.events[prev].seq)
		}
		out = append(out, i)
	}
	return out
}

// TestLadderOrderProperties drives push/pop patterns straight through the
// ladder and asserts every pop sequence is exactly (at, seq)-sorted.
func TestLadderOrderProperties(t *testing.T) {
	cases := []struct {
		name string
		ats  func(r *rand.Rand, k int) time.Duration
		n    int
	}{
		{"uniform near horizon", func(r *rand.Rand, _ int) time.Duration {
			return time.Duration(r.Intn(10_000_000))
		}, 3000},
		{"same-instant ties", func(r *rand.Rand, _ int) time.Duration {
			return time.Duration(r.Intn(4)) * time.Millisecond
		}, 500},
		{"two skewed clusters", func(r *rand.Rand, k int) time.Duration {
			if k%2 == 0 {
				return time.Millisecond + time.Duration(r.Intn(1000))*time.Microsecond
			}
			return time.Hour + time.Duration(r.Intn(1000))*time.Nanosecond
		}, 2000},
		{"single far outlier", func(r *rand.Rand, k int) time.Duration {
			if k == 0 {
				return 240 * time.Hour
			}
			return time.Duration(1 + r.Intn(2_000_000))
		}, 1500},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, q, add := rawLadder()
			r := rand.New(rand.NewSource(7))
			for k := 0; k < tc.n; k++ {
				add(tc.ats(r, k))
			}
			if q.len() != tc.n {
				t.Fatalf("len = %d, want %d", q.len(), tc.n)
			}
			// Interleave: drain half, push a second wave (below and above
			// the frontier), drain the rest.
			drainSorted(t, s, q, tc.n/2)
			for k := 0; k < tc.n/4; k++ {
				at := tc.ats(r, k)
				if at < s.events[q.peekMin()].at {
					at = s.events[q.peekMin()].at // pushes are never below the drained past
				}
				add(at)
			}
			drainSorted(t, s, q, q.len())
			if got := q.popMin(); got != noEvent {
				t.Fatalf("popMin on empty = %d, want noEvent", got)
			}
		})
	}
}

// TestLadderEpochAdvance checks that draining one year and reaching the
// next re-spawns the structure at a new epoch: the year's start advances
// past everything consumed, the frontier is monotone throughout, and rung
// boundaries are crossed without losing or reordering events.
func TestLadderEpochAdvance(t *testing.T) {
	s, q, add := rawLadder()
	// First cluster: dense near-term events (one year).
	for k := 0; k < 200; k++ {
		add(time.Millisecond + time.Duration(k%50)*time.Microsecond)
	}
	if q.peekMin() == noEvent {
		t.Fatal("peekMin = noEvent with events queued")
	}
	if len(q.rungs) == 0 {
		t.Fatal("no year spawned by peek")
	}
	firstEpoch := q.rungs[0].start
	lastFrontier := q.frontier
	drainSorted(t, s, q, 200)
	if q.frontier < lastFrontier {
		t.Fatalf("frontier went backwards: %v -> %v", lastFrontier, q.frontier)
	}
	if got := q.peekMin(); got != noEvent { // forces the lazy rung cleanup
		t.Fatalf("peekMin after full drain = %d, want noEvent", got)
	}
	if len(q.rungs) != 0 {
		t.Fatalf("rungs not dropped after full drain: %d", len(q.rungs))
	}
	// Second cluster far ahead: must re-spawn a NEW year at a later epoch.
	for k := 0; k < 200; k++ {
		add(10*time.Second + time.Duration(k)*time.Microsecond)
	}
	if q.peekMin() == noEvent {
		t.Fatal("peekMin = noEvent after second wave")
	}
	if len(q.rungs) == 0 {
		t.Fatal("no re-spawned year after epoch advance")
	}
	secondEpoch := q.rungs[0].start
	if secondEpoch <= firstEpoch {
		t.Fatalf("epoch did not advance: first %v, second %v", firstEpoch, secondEpoch)
	}
	if secondEpoch < 10*time.Second {
		t.Fatalf("second epoch %v predates its events", secondEpoch)
	}
	drainSorted(t, s, q, 200)
}

// TestLadderWidthResize checks the bucket width adapts to the pending
// horizon's span on every re-spawn, and that an overfull bucket under skew
// subdivides into a child rung of strictly finer width.
func TestLadderWidthResize(t *testing.T) {
	s, q, add := rawLadder()
	// Wide horizon: 1024 events over ~1s.
	for k := 0; k < 1024; k++ {
		add(time.Duration(1+k) * time.Millisecond)
	}
	q.peekMin()
	wide := q.rungs[0].width
	if wide <= 0 {
		t.Fatalf("wide width = %v", wide)
	}
	drainSorted(t, s, q, 1024)

	// Narrow horizon, same count: the re-spawned year must re-size.
	for k := 0; k < 1024; k++ {
		add(2*time.Second + time.Duration(k)*time.Nanosecond)
	}
	q.peekMin()
	narrow := q.rungs[0].width
	drainSorted(t, s, q, 1024)
	if narrow >= wide {
		t.Fatalf("width did not shrink for a narrower horizon: wide %v, narrow %v", wide, narrow)
	}

	// Skew: one far outlier stretches the year, piling the dense cluster
	// into one bucket — which must spawn a child rung of finer width.
	for k := 0; k < 500; k++ {
		add(10*time.Second + time.Duration(k%200)*time.Nanosecond)
	}
	add(100 * 24 * time.Hour)
	q.peekMin()
	if len(q.rungs) < 2 {
		t.Fatalf("dense bucket under skew did not spawn a child rung: %d rungs", len(q.rungs))
	}
	parent, child := q.rungs[0], q.rungs[len(q.rungs)-1]
	if child.width >= parent.width {
		t.Fatalf("child rung width %v not finer than parent %v", child.width, parent.width)
	}
	drainSorted(t, s, q, 501)
}

// checkSlabInvariant asserts no slab index is simultaneously queued and on
// the free list, and that nothing is queued twice — i.e. release() can
// never hand out a slot that the queue still references.
func checkSlabInvariant(t *testing.T, s *Simulator) {
	t.Helper()
	q := s.queue.(*ladderQueue)
	seen := make(map[int32]bool)
	for _, i := range q.indices() {
		if seen[i] {
			t.Fatalf("slab index %d queued twice", i)
		}
		seen[i] = true
	}
	if got, want := len(seen), q.len(); got != want {
		t.Fatalf("queue holds %d distinct indices but len() = %d", got, want)
	}
	for k := s.fifoHead; k < len(s.fifo); k++ {
		i := s.fifo[k]
		if seen[i] {
			t.Fatalf("slab index %d in both queue and fifo", i)
		}
		seen[i] = true
	}
	for _, i := range s.free {
		if seen[i] {
			t.Fatalf("slab index %d is queued AND on the free list", i)
		}
	}
}

// TestLadderSlabRelease drives a full simulator on the ladder through a
// randomized schedule/stop/step churn, checking after every operation that
// queued slab indices never overlap the free list (no reuse while queued).
func TestLadderSlabRelease(t *testing.T) {
	scenarios := []struct {
		name     string
		stopFrac int // stop one in stopFrac timers
		farFrac  int // one in farFrac timers is far-horizon
	}{
		{"no stops", 0, 5},
		{"light stop churn", 4, 0},
		{"heavy stop churn", 2, 3},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := New(3)
			r := rand.New(rand.NewSource(11))
			var timers []*Timer
			for round := 0; round < 40; round++ {
				for k := 0; k < 25; k++ {
					d := time.Duration(r.Intn(5000)) * time.Microsecond
					if sc.farFrac > 0 && k%sc.farFrac == 0 {
						d = time.Duration(r.Intn(3600)) * time.Second
					}
					timers = append(timers, s.After(d, func() {}))
				}
				if sc.stopFrac > 0 {
					for k := 0; k < len(timers); k += sc.stopFrac {
						timers[k].Stop()
					}
				}
				checkSlabInvariant(t, s)
				for k := 0; k < 10; k++ {
					s.Step()
				}
				checkSlabInvariant(t, s)
			}
			s.Run()
			checkSlabInvariant(t, s)
			if s.Pending() != 0 {
				t.Fatalf("Pending = %d after full drain", s.Pending())
			}
		})
	}
}
