package qos

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// randomTrace builds a synthetic suspicion log: random transitions (with
// duplicates, interleavings, and out-of-order recording) over n processes.
func randomTrace(r *rand.Rand, n, events int) *trace.Log {
	l := &trace.Log{}
	for i := 0; i < events; i++ {
		at := time.Duration(r.Int63n(int64(20 * time.Second)))
		obs := ident.ID(r.Intn(n))
		subj := ident.ID(r.Intn(n))
		l.OnSuspicion(at, obs, subj, r.Intn(2) == 0)
	}
	return l
}

// randomTruth builds a ground truth where some processes crash (and some of
// those recover, possibly to crash again) at random instants.
func randomTruth(r *rand.Rand, n int) *GroundTruth {
	var g GroundTruth
	for id := 0; id < n; id++ {
		if r.Intn(3) != 0 {
			continue
		}
		at := time.Duration(r.Int63n(int64(10 * time.Second)))
		for k := 0; k < 1+r.Intn(2); k++ {
			g.Crash(ident.ID(id), at)
			if r.Intn(2) == 0 {
				break // crash-stop
			}
			at += time.Duration(r.Int63n(int64(5 * time.Second)))
			g.Recover(ident.ID(id), at)
			at += time.Duration(1 + r.Int63n(int64(3*time.Second)))
		}
	}
	return &g
}

// TestJudgeDifferential proves every Judge finalizer byte-identical to the
// legacy sort+rescan implementation on randomized traces. randomTrace
// records out of time order, so the log's insert of an earlier event is
// exercised too.
func TestJudgeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	horizon := 20 * time.Second
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(6)
		log := randomTrace(r, n, r.Intn(300))
		truth := randomTruth(r, n)
		members := ident.FullSet(n)
		// Mistakes folds over the pairs the trace holds, not over members:
		// a pair with an end outside the member set must drop out of it.
		var some ident.Set
		for id := 0; id < n; id++ {
			if r.Intn(2) == 0 {
				some.Add(ident.ID(id))
			}
		}

		j := JudgeFrom(log)
		for id := 0; id < n; id++ {
			subj := ident.ID(id)
			if got, want := j.DetectionTimes(truth, subj, members), LegacyDetectionTimes(log, truth, subj, members); got != want {
				t.Fatalf("trial %d: DetectionTimes(%v) = %+v, legacy %+v", trial, subj, got, want)
			}
			for k := 0; k < 3; k++ {
				if got, want := j.RedetectionTimes(truth, subj, members, k), LegacyRedetectionTimes(log, truth, subj, members, k); got != want {
					t.Fatalf("trial %d: RedetectionTimes(%v, %d) = %+v, legacy %+v", trial, subj, k, got, want)
				}
				if got, want := j.TrustRestorationTimes(truth, subj, members, k), LegacyTrustRestorationTimes(log, truth, subj, members, k); got != want {
					t.Fatalf("trial %d: TrustRestorationTimes(%v, %d) = %+v, legacy %+v", trial, subj, k, got, want)
				}
			}
		}
		if got, want := j.Mistakes(truth, members, horizon), LegacyMistakes(log, truth, members, horizon); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Mistakes = %+v, legacy %+v", trial, got, want)
		}
		if got, want := j.Mistakes(truth, some, horizon), LegacyMistakes(log, truth, some, horizon); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Mistakes among %v = %+v, legacy %+v", trial, some, got, want)
		}
		if got, want := j.QueryAccuracy(truth, members, horizon), LegacyQueryAccuracy(log, truth, members, horizon); got != want {
			t.Fatalf("trial %d: QueryAccuracy = %v, legacy %v", trial, got, want)
		}
		gs, gc := j.Reconvergence(truth, members, 5*time.Second)
		ws, wc := LegacyReconvergence(log, truth, members, 5*time.Second)
		if gs != ws || gc != wc {
			t.Fatalf("trial %d: Reconvergence = (%v, %v), legacy (%v, %v)", trial, gs, gc, ws, wc)
		}
		if got, want := j.MistakeStorm(truth, members, 2*time.Second, 12*time.Second), LegacyMistakeStorm(log, truth, members, 2*time.Second, 12*time.Second); got != want {
			t.Fatalf("trial %d: MistakeStorm = %d, legacy %d", trial, got, want)
		}
		// Sampled where the answer can change — the instant of every event
		// (episodes begin and end there) — and before and after them all.
		times := []time.Duration{0, horizon + time.Second}
		for _, e := range log.Events() {
			times = append(times, e.At)
		}
		slices.Sort(times)
		if got, want := j.FalseSuspicionSeries(truth, times), LegacyFalseSuspicionSeries(log, truth, times); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FalseSuspicionSeries = %v, legacy %v", trial, got, want)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestGroundTruthRejectsOutOfOrder covers the validated non-decreasing-time
// contract: transitions that would record negative-length or overlapping
// downtime intervals panic instead of silently corrupting the record.
func TestGroundTruthRejectsOutOfOrder(t *testing.T) {
	mustPanic(t, "Recover before crash instant", func() {
		var g GroundTruth
		g.Crash(1, 5*time.Second)
		g.Recover(1, 4*time.Second)
	})
	mustPanic(t, "Crash before previous recovery", func() {
		var g GroundTruth
		g.Crash(1, 5*time.Second)
		g.Recover(1, 8*time.Second)
		g.Crash(1, 7*time.Second)
	})
}

// TestGroundTruthCrashAtRecoveryInstant: a crash exactly at the recovery
// instant opens a back-to-back interval, and the recovery instant itself
// counts as down (the second interval's Start is inclusive).
func TestGroundTruthCrashAtRecoveryInstant(t *testing.T) {
	var g GroundTruth
	g.Crash(1, 5*time.Second)
	g.Recover(1, 8*time.Second)
	g.Crash(1, 8*time.Second)
	ivs := g.Intervals(1)
	if len(ivs) != 2 || ivs[0].End != 8*time.Second || ivs[1].Start != 8*time.Second || !ivs[1].Open() {
		t.Fatalf("intervals = %+v", ivs)
	}
	if !g.DownAt(1, 8*time.Second) {
		t.Error("process not down at the back-to-back boundary")
	}
}

// TestGroundTruthZeroLengthDowntime: recovering exactly at the crash instant
// is legal and yields an interval covering no instant at all.
func TestGroundTruthZeroLengthDowntime(t *testing.T) {
	var g GroundTruth
	g.Crash(1, 5*time.Second)
	g.Recover(1, 5*time.Second)
	if g.DownAt(1, 5*time.Second) {
		t.Error("zero-length downtime covers its own instant")
	}
	if !g.Crashed(1) {
		t.Error("zero-length downtime not recorded at all")
	}
}

// TestOpenIntervalAtHorizonCut: a process still down at the horizon turns an
// open suspicion episode into a true detection (not Unresolved), while an
// open episode about an up process stays an accuracy violation at the cut.
func TestOpenIntervalAtHorizonCut(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(1, 5*time.Second)                // still down at the 20s horizon
	l.OnSuspicion(6*time.Second, 0, 1, true) // true detection, open at cut
	l.OnSuspicion(7*time.Second, 1, 0, true) // false suspicion, open at cut
	st := JudgeFrom(l).Mistakes(&g, ident.SetOf(0, 1), 20*time.Second)
	if st.Count != 0 || st.Unresolved != 1 {
		t.Fatalf("Mistakes = %+v, want 0 closed / 1 unresolved", st)
	}
}
