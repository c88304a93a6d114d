package chen

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

func newTestEstimator(window int) *Estimator {
	return &Estimator{p: &params{interval: time.Second, alpha: 200 * time.Millisecond, window: window}}
}

func TestExpectedArrival(t *testing.T) {
	e := newTestEstimator(100)
	// Heartbeats 1,2,3 arrived exactly on schedule with 10ms transit.
	for seq := uint64(1); seq <= 3; seq++ {
		e.Beat(seq, time.Duration(seq)*time.Second+10*time.Millisecond, false)
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
		e.Beat(seq, time.Duration(seq)*(time.Second+time.Millisecond), false)
		if e.lags.Len() > 3 {
			t.Fatalf("window len = %d, want at most 3", e.lags.Len())
		}
		// The running sum holds exactly what the ring holds.
		var walked time.Duration
		for i := range e.lags.Len() {
			walked += e.lags.At(i)
		}
		if e.sum != walked {
			t.Errorf("after heartbeat %d: running sum %v, walk of the ring %v", seq, e.sum, walked)
		}
	}
	if e.lags.Len() != 3 || e.maxSeq != 5 {
		t.Errorf("window len = %d, maxSeq = %d; want 3 and 5", e.lags.Len(), e.maxSeq)
	}
	// Heartbeats 3, 4, 5 lag 3, 4 and 5 ms behind Δ·s: EA is Δ·6 + 4 ms.
	if want := 6*time.Second + 4*time.Millisecond; e.expectedArrival() != want {
		t.Errorf("EA = %v, want %v", e.expectedArrival(), want)
	}
}

// TestEstimatorSize pins the record a monitor keeps per peer on a 64-bit
// platform: the params pointer, the ring (its slice header, base, cursor and
// width flag, 40 bytes), maxSeq, the sum, and bootstrap in a word of its own.
// The ring's 16 bytes over a bare slice header buy four-byte samples: 400
// bytes off a full window of 100.
func TestEstimatorSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Estimator{}); got != 72 {
		t.Errorf("Estimator is %d bytes, want 72", got)
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
	if e.maxSeq != 5 || e.lags.Len() != 2 { // bootstrap sample + seq 5
		t.Errorf("maxSeq = %d, samples = %d after stale heartbeats, want 5 and 2", e.maxSeq, e.lags.Len())
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
	if _, ok := e.Beat(3, time.Minute, true); !ok || e.lags.Len() != 1 {
		t.Fatalf("heartbeat from a suspected peer left %d samples, want the window rebased on it alone", e.lags.Len())
	}
	if got, want := e.deadline(), time.Minute+time.Second+200*time.Millisecond; got != want {
		t.Errorf("deadline after rebase = %v, want arrival + Δ + α = %v", got, want)
	}
	if got, want := e.Resume(true, 2*time.Minute), 2*time.Minute+time.Second+200*time.Millisecond; got != want {
		t.Errorf("fresh restart grants until %v, want restart + Δ + α = %v", got, want)
	}
	if _, ok := e.Beat(1, 2*time.Minute+time.Second, false); !ok || e.lags.Len() != 1 || e.maxSeq != 1 {
		t.Errorf("first heartbeat after a fresh restart: ok=%v, %d samples, maxSeq %d; want it to replace the bootstrap sample", ok, e.lags.Len(), e.maxSeq)
	}
	stale := e.deadline()
	if got := e.Resume(false, time.Hour); got != stale || e.lags.Len() != 1 {
		t.Errorf("persisted restart moved the deadline %v → %v; want the stale window kept", stale, got)
	}
}

// twin is the Estimator and the oracle it is held to, over one shared params,
// driven in lockstep. scratch is the destination of copies: one that the
// previous copy left dirty.
type twin struct {
	e       Estimator
	r       refEstimator
	scratch struct {
		e Estimator
		r refEstimator
	}
}

// same fails unless both rules returned the same deadline and ok.
func same(t testing.TB, step string, got, want time.Duration, gotOK, wantOK bool) {
	t.Helper()
	if got != want || gotOK != wantOK {
		t.Fatalf("%s: (%d, %v), reference (%d, %v)", step, got, gotOK, want, wantOK)
	}
}

func (w *twin) prime(t testing.TB, now time.Duration) {
	t.Helper()
	same(t, "Prime", w.e.Prime(now), w.r.Prime(now), true, true)
}

func (w *twin) resume(t testing.TB, fresh bool, now time.Duration) {
	t.Helper()
	same(t, "Resume", w.e.Resume(fresh, now), w.r.Resume(fresh, now), true, true)
}

func (w *twin) beat(t testing.TB, seq uint64, now time.Duration, suspected bool) {
	t.Helper()
	got, gotOK := w.e.Beat(seq, now, suspected)
	want, wantOK := w.r.Beat(seq, now, suspected)
	same(t, "Beat", got, want, gotOK, wantOK)
}

// check holds the twin's present state to the oracle: the window's length
// and highest sequence number, the deadline, and Suspected either side of
// it, at now and at an instant drawn from rng.
func (w *twin) check(t testing.TB, now time.Duration, rng *rand.Rand) {
	t.Helper()
	if w.e.lags.Len() != len(w.r.samples) || w.e.maxSeq != w.r.maxSeq || w.e.bootstrap != w.r.bootstrap {
		t.Fatalf("window %d samples, maxSeq %d, bootstrap %v; reference %d, %d, %v",
			w.e.lags.Len(), w.e.maxSeq, w.e.bootstrap, len(w.r.samples), w.r.maxSeq, w.r.bootstrap)
	}
	d := w.r.deadline()
	if got := w.e.deadline(); got != d {
		t.Fatalf("deadline %d, reference %d", got, d)
	}
	for _, at := range []time.Duration{d - 1, d, d + 1, now, time.Duration(rng.Uint64())} {
		if got, want := w.e.Suspected(at), w.r.Suspected(at); got != want {
			t.Fatalf("Suspected(%d) = %v, reference %v (deadline %d)", at, got, want, d)
		}
	}
}

// runScript interprets data as a configuration (three bytes), a start time
// (one) and a list of two-byte operations on a primed twin, checked after
// each. The sender's sequence number and the clock only move forward, but
// both may wrap: Δ·seq, the arrival times and the window sums are all free to
// pass 2⁶³.
func runScript(t testing.TB, data []byte) {
	if len(data) < 4 {
		return
	}
	if len(data) > 404 {
		data = data[:404]
	}
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))

	interval := time.Millisecond + time.Duration(data[0])*time.Duration(data[0])*153770 // 1 ms – 10 s
	p := &params{interval: interval, alpha: 1 + interval*time.Duration(data[2])/64, window: 1 + int(data[1])%120}
	w := &twin{e: Estimator{p: p}, r: refEstimator{p: p}}
	clock := []time.Duration{0, time.Second, time.Hour, -5 * time.Second, math.MaxInt64 - time.Hour}[data[3]%5]
	w.prime(t, clock)
	w.check(t, clock, rng)

	var seq uint64
	for ops := data[4:]; len(ops) >= 2; ops = ops[2:] {
		arg := time.Duration(ops[1])
		switch ops[0] % 10 {
		case 0: // punctual
			clock += interval
			seq++
			w.beat(t, seq, clock, w.r.Suspected(clock))
		case 1: // jittered: 0 to 2 intervals
			clock += interval * arg / 128
			seq++
			w.beat(t, seq, clock, w.r.Suspected(clock))
		case 2: // heartbeats lost on the way
			clock += interval * (1 + arg)
			seq += 1 + uint64(arg)
			w.beat(t, seq, clock, w.r.Suspected(clock))
		case 3: // a duplicate or a reordered one: dropped
			clock += arg * time.Millisecond
			w.beat(t, w.r.maxSeq-min(uint64(arg%3), w.r.maxSeq), clock, w.r.Suspected(clock))
		case 4: // a heartbeat from a peer the monitor suspects: rebases
			clock += interval * arg / 16
			seq++
			w.beat(t, seq, clock, true)
		case 5: // the monitor's own crash-recovery, fresh or persisted
			clock += interval * arg / 16
			w.resume(t, arg%2 == 0, clock)
		case 6:
			clock += interval * arg / 64
			w.prime(t, clock)
		case 7: // carry on from a copy made into a dirty destination
			w.e.CopyTo(&w.scratch.e)
			w.r.CopyTo(&w.scratch.r)
			w.e, w.scratch.e = w.scratch.e, w.e
			w.r, w.scratch.r = w.scratch.r, w.r
		case 8: // a sequence number far ahead: Δ·seq wraps
			clock += interval
			seq += 1 << (arg % 64)
			w.beat(t, seq, clock, w.r.Suspected(clock))
		case 9: // an arrival far ahead: the clock and the sums wrap
			clock += arg << 55
			seq++
			w.beat(t, seq, clock, w.r.Suspected(clock))
		}
		w.check(t, clock, rng)
	}
}

// FuzzDeadlineMatchesReference drives random scripts of heartbeats, restarts
// and copies against the Estimator and the (seq, arrival) window it replaced,
// and after every step asks both for the deadline and for Suspected around it.
// The committed corpus (testdata/fuzz/FuzzDeadlineMatchesReference) is
// replayed by plain go test.
func FuzzDeadlineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}
