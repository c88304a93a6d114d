package phiaccrual

import (
	"fmt"
	"testing"
	"time"

	"asyncfd/internal/raceflag"
)

// fullEstimator has a full window of slightly uneven gaps around 1 s.
func fullEstimator(tb testing.TB, window int) *Estimator {
	tb.Helper()
	e, err := NewEstimator(EstimatorConfig{Interval: time.Second, WindowSize: window}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < window; i++ {
		e.Observe(e.last + time.Second + time.Duration(i%7)*time.Millisecond)
	}
	return e
}

// firstReached bisects the first instant after last at which reached holds,
// if there is one within 2⁵⁵ ns; reached must hold from then on.
func firstReached(last time.Duration, reached func(time.Duration) bool) (at time.Duration, ok bool) {
	lo, hi := last, last+1
	for !reached(hi) {
		if hi-last > 1<<55 {
			return 0, false
		}
		lo, hi = hi, last+2*(hi-last)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; reached(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// overdue is the last instant at which e is not yet suspected: past the
// horizon, so the rule is evaluated, and short of the latch.
func overdue(e *Estimator) time.Duration {
	at, _ := firstReached(e.last, func(now time.Duration) bool { return e.Phi(now) >= e.cfg.Threshold })
	return at - 1
}

var sinkSuspected bool

// BenchmarkSuspected is one poll of one peer with a full window: straight
// after a sighting, which is what nearly every poll finds, and with the
// next heartbeat so late that the rule itself is evaluated — the go test
// counterpart of the benchmark's phiaccrual.suspected_ns.
func BenchmarkSuspected(b *testing.B) {
	for _, window := range []int{32, 200} {
		e := fullEstimator(b, window)
		for _, c := range []struct {
			name string
			now  time.Duration
		}{
			{"trusted", e.last + 250*time.Millisecond},
			{"overdue", overdue(e)},
		} {
			b.Run(fmt.Sprintf("window=%d/%s", window, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkSuspected = e.Suspected(c.now)
				}
				if sinkSuspected {
					b.Fatal("suspected: the benchmark timed the latch")
				}
			})
		}
	}
}

// TestAllocsSuspected: neither a sighting taken into a full window nor a
// poll, on either side of the horizon, allocates.
func TestAllocsSuspected(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	e := fullEstimator(t, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		e.Observe(e.last + time.Second)
		sinkSuspected = e.Suspected(e.last+250*time.Millisecond) || e.Suspected(overdue(e))
	}); allocs != 0 {
		t.Errorf("a sighting and two polls: %v allocations, want 0", allocs)
	}
	if sinkSuspected {
		t.Error("suspected short of the threshold")
	}
}
