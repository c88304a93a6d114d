package heartbeat

import (
	"testing"
	"time"
)

func TestEstimatorTimeoutRule(t *testing.T) {
	e := NewEstimator(100*time.Millisecond, 0)
	if e.Suspected(50 * time.Millisecond) {
		t.Error("suspected within the primed timeout")
	}
	if !e.Suspected(150 * time.Millisecond) {
		t.Error("not suspected after silence > timeout")
	}
	e.Observe(140 * time.Millisecond)
	if e.Suspected(200 * time.Millisecond) {
		t.Error("suspected right after a heartbeat")
	}
	if !e.Suspected(241 * time.Millisecond) {
		t.Error("not suspected after renewed silence")
	}
}

func TestEstimatorOutOfOrderObserve(t *testing.T) {
	e := NewEstimator(100*time.Millisecond, 0)
	e.Observe(80 * time.Millisecond)
	e.Observe(20 * time.Millisecond) // stale: must not rewind
	if e.last != 80*time.Millisecond {
		t.Errorf("last sighting = %v after stale Observe, want 80ms", e.last)
	}
	if e.Suspected(150 * time.Millisecond) {
		t.Error("stale Observe rewound the silence clock")
	}
}
