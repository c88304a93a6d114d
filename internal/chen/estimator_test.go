package chen

import (
	"testing"
	"time"
)

func newTestEstimator(window int) *Estimator {
	return &Estimator{cfg: &Config{Interval: time.Second, Alpha: 200 * time.Millisecond, WindowSize: window}}
}

func TestExpectedArrival(t *testing.T) {
	e := newTestEstimator(100)
	// Heartbeats 1,2,3 arrived exactly on schedule with 10ms transit.
	for seq := uint64(1); seq <= 3; seq++ {
		e.push(sample{seq: seq, arrival: time.Duration(seq)*time.Second + 10*time.Millisecond})
	}
	want := 4*time.Second + 10*time.Millisecond
	if ea := e.expectedArrival(); ea != want {
		t.Errorf("EA = %v, want %v", ea, want)
	}
	// Suspicion starts strictly after EA + α.
	if e.Suspected(want+200*time.Millisecond) || !e.Suspected(want+200*time.Millisecond+1) {
		t.Errorf("Suspected does not turn at EA + α = %v", want+200*time.Millisecond)
	}
	if newTestEstimator(100).expectedArrival() != 0 {
		t.Error("EA of empty window nonzero")
	}
}

func TestEstimatorRing(t *testing.T) {
	e := newTestEstimator(3)
	for seq := uint64(1); seq <= 5; seq++ {
		e.push(sample{seq: seq, arrival: time.Duration(seq) * time.Second})
	}
	if len(e.samples) != 3 {
		t.Errorf("window len = %d, want 3", len(e.samples))
	}
	if e.maxSeq != 5 {
		t.Errorf("maxSeq = %d, want 5", e.maxSeq)
	}
	// The running sums hold exactly what the ring holds: 3, 4, 5.
	if e.sumSeq != 12 || e.sumArrival != 12*time.Second {
		t.Errorf("running sums = (%d, %v), want (12, 12s)", e.sumSeq, e.sumArrival)
	}
}

func TestStaleHeartbeatIgnored(t *testing.T) {
	e := newTestEstimator(100)
	e.Prime(0)
	deadline, ok := e.Beat(5, 10*time.Millisecond, false)
	if !ok {
		t.Fatal("fresh heartbeat dropped")
	}
	for _, seq := range []uint64{3, 5} { // a reordered and a duplicated one
		if _, ok := e.Beat(seq, 20*time.Millisecond, false); ok {
			t.Errorf("stale heartbeat %d taken in", seq)
		}
	}
	if e.maxSeq != 5 || len(e.samples) != 2 { // bootstrap sample + seq 5
		t.Errorf("maxSeq = %d, samples = %d after stale heartbeats, want 5 and 2", e.maxSeq, len(e.samples))
	}
	if e.deadline() != deadline {
		t.Errorf("deadline moved from %v to %v by stale heartbeats", deadline, e.deadline())
	}
}

// TestBeatRebases: a heartbeat from a suspected peer, and the first one
// after a fresh restart, replace the window instead of joining it.
func TestBeatRebases(t *testing.T) {
	e := newTestEstimator(100)
	e.Prime(0)
	e.Beat(1, time.Second, false)
	e.Beat(2, 2*time.Second, false)
	if _, ok := e.Beat(3, time.Minute, true); !ok || len(e.samples) != 1 {
		t.Fatalf("heartbeat from a suspected peer left %d samples, want the window rebased on it alone", len(e.samples))
	}
	if got, want := e.deadline(), time.Minute+time.Second+200*time.Millisecond; got != want {
		t.Errorf("deadline after rebase = %v, want arrival + Δ + α = %v", got, want)
	}
	if got, want := e.Resume(true, 2*time.Minute), 2*time.Minute+time.Second+200*time.Millisecond; got != want {
		t.Errorf("fresh restart grants until %v, want restart + Δ + α = %v", got, want)
	}
	if _, ok := e.Beat(1, 2*time.Minute+time.Second, false); !ok || len(e.samples) != 1 || e.maxSeq != 1 {
		t.Errorf("first heartbeat after a fresh restart: ok=%v, %d samples, maxSeq %d; want it to replace the bootstrap sample", ok, len(e.samples), e.maxSeq)
	}
	stale := e.deadline()
	if got := e.Resume(false, time.Hour); got != stale || len(e.samples) != 1 {
		t.Errorf("persisted restart moved the deadline %v → %v; want the stale window kept", stale, got)
	}
}
