package qos

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// queryAccuracy folds l for P_A alone.
func queryAccuracy(l *trace.Log, truth *GroundTruth, members ident.Set, horizon time.Duration) float64 {
	pa := NewQueryAccuracy(truth, members, horizon)
	Fold(l, pa)
	return pa.Result()
}

// falseSuspicionSeries folds l for the false-suspicion series alone.
func falseSuspicionSeries(l *trace.Log, truth *GroundTruth, times []time.Duration) []int {
	series := NewFalseSuspicionSeries(truth, times)
	Fold(l, series)
	return series.Result()
}

func TestGroundTruth(t *testing.T) {
	var g GroundTruth
	if g.Crashed(1) || g.DownAt(1, sec(10)) {
		t.Error("zero GroundTruth reports crashes")
	}
	g.Crash(1, sec(5))
	if !g.Crashed(1) {
		t.Error("Crashed = false after Crash")
	}
	if at, ok := g.CrashTime(1); !ok || at != sec(5) {
		t.Errorf("CrashTime = %v,%v", at, ok)
	}
	if g.DownAt(1, sec(4)) {
		t.Error("DownAt before crash time = true")
	}
	if !g.DownAt(1, sec(5)) || !g.DownAt(1, sec(6)) {
		t.Error("DownAt at/after crash time = false")
	}
}

func TestGroundTruthIntervals(t *testing.T) {
	var g GroundTruth
	// crash → recover → crash.
	g.Crash(1, sec(5))
	g.Recover(1, sec(10))
	g.Crash(1, sec(20))

	ivs := g.Intervals(1)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %+v, want 2", ivs)
	}
	if ivs[0].Start != sec(5) || ivs[0].End != sec(10) || ivs[0].Open() {
		t.Errorf("first interval = %+v", ivs[0])
	}
	if ivs[1].Start != sec(20) || !ivs[1].Open() {
		t.Errorf("second interval = %+v", ivs[1])
	}
	if at, ok := g.CrashTime(1); !ok || at != sec(5) {
		t.Errorf("CrashTime = %v,%v, want first crash", at, ok)
	}
	if !g.Crashed(1) || g.Crashed(2) {
		t.Error("Crashed bookkeeping wrong")
	}

	// DownAt at interval boundaries: crash instants are down (inclusive),
	// recovery instants are up (exclusive).
	cases := []struct {
		at   time.Duration
		down bool
	}{
		{sec(4), false}, {sec(5), true}, {sec(7), true}, {sec(10), false},
		{sec(15), false}, {sec(20), true}, {sec(30), true},
	}
	for _, tc := range cases {
		if got := g.DownAt(1, tc.at); got != tc.down {
			t.Errorf("DownAt(1, %v) = %v, want %v", tc.at, got, tc.down)
		}
	}
}

func TestGroundTruthRedundantTransitionsIgnored(t *testing.T) {
	var g GroundTruth
	g.Recover(1, sec(1)) // recover while up: no-op
	if g.Crashed(1) {
		t.Error("Recover on an up process recorded something")
	}
	g.Crash(1, sec(2))
	g.Crash(1, sec(3)) // crash while down: no-op
	if ivs := g.Intervals(1); len(ivs) != 1 || ivs[0].Start != sec(2) {
		t.Errorf("intervals = %+v", ivs)
	}
	g.Recover(1, sec(4))
	g.Recover(1, sec(5)) // recover while up: no-op
	if ivs := g.Intervals(1); len(ivs) != 1 || ivs[0].End != sec(4) {
		t.Errorf("intervals = %+v", ivs)
	}
}

func TestMistakesJudgedAgainstIntervals(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(1, sec(5))
	g.Recover(1, sec(10))
	// Episode beginning during the downtime: a true suspicion, not a mistake.
	l.OnSuspicion(sec(6), 0, 1, true)
	l.OnSuspicion(sec(11), 0, 1, false)
	// Episode beginning after the recovery: a mistake again.
	l.OnSuspicion(sec(12), 0, 1, true)
	l.OnSuspicion(sec(14), 0, 1, false)
	st := JudgeFrom(l).Mistakes(&g, ident.SetOf(0, 1), sec(20))
	if st.Count != 1 || st.AvgDuration != sec(2) {
		t.Errorf("stats = %+v, want one 2s post-recovery mistake", st)
	}
}

func TestRedetectionTimes(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	g.Recover(3, sec(20))
	g.Crash(3, sec(30))
	// Crash #1: observer 0 detects at 12s, observer 1 already suspected
	// since 9s, observer 2 never notices before the recovery.
	l.OnSuspicion(sec(9), 1, 3, true)
	l.OnSuspicion(sec(12), 0, 3, true)
	// Restorations after the recovery.
	l.OnSuspicion(sec(21), 0, 3, false)
	l.OnSuspicion(sec(22), 1, 3, false)
	// Crash #2: observers 0 and 2 re-detect, observer 1 never does.
	l.OnSuspicion(sec(31), 0, 3, true)
	l.OnSuspicion(sec(33), 2, 3, true)

	obs := ident.SetOf(0, 1, 2)
	st1 := JudgeFrom(l).RedetectionTimes(&g, 3, obs, 0)
	if st1.Count != 2 || st1.Missing != 1 {
		t.Fatalf("crash #1 stats = %+v", st1)
	}
	if st1.Min != 0 || st1.Max != sec(2) || st1.Avg != sec(1) {
		t.Errorf("crash #1 stats = %+v", st1)
	}
	st2 := JudgeFrom(l).RedetectionTimes(&g, 3, obs, 1)
	if st2.Count != 2 || st2.Missing != 1 {
		t.Fatalf("crash #2 stats = %+v", st2)
	}
	if st2.Min != sec(1) || st2.Max != sec(3) || st2.Avg != sec(2) {
		t.Errorf("crash #2 stats = %+v", st2)
	}
	// Out-of-range interval index: everything missing.
	if st := JudgeFrom(l).RedetectionTimes(&g, 3, obs, 5); st.Missing != 3 {
		t.Errorf("out-of-range stats = %+v", st)
	}
}

func TestRedetectionIgnoresPostRecoveryEpisodes(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	g.Recover(3, sec(20))
	// The only episode begins after the recovery: it cannot count as
	// detection of the closed downtime.
	l.OnSuspicion(sec(25), 0, 3, true)
	st := JudgeFrom(l).RedetectionTimes(&g, 3, ident.SetOf(0), 0)
	if st.Count != 0 || st.Missing != 1 {
		t.Errorf("stats = %+v, want missing", st)
	}
}

func TestTrustRestorationTimes(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	g.Recover(3, sec(20))
	// Observer 0: suspects during downtime, restores 1.5s after recovery.
	// Observer 1: suspected and already restored before the recovery (a
	// flap): not suspecting at the recovery instant → not counted.
	// Observer 2: suspects and never restores → missing.
	l.OnSuspicion(sec(11), 0, 3, true)
	l.OnSuspicion(sec(12), 1, 3, true)
	l.OnSuspicion(sec(13), 2, 3, true)
	l.OnSuspicion(sec(15), 1, 3, false)
	l.OnSuspicion(sec(21)+500*time.Millisecond, 0, 3, false)

	st := JudgeFrom(l).TrustRestorationTimes(&g, 3, ident.SetOf(0, 1, 2), 0)
	if st.Count != 1 || st.Missing != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Avg != sec(1)+500*time.Millisecond {
		t.Errorf("Avg = %v, want 1.5s", st.Avg)
	}
	// An open downtime has no recovery to restore trust after.
	var g2 GroundTruth
	g2.Crash(3, sec(10))
	if st := JudgeFrom(l).TrustRestorationTimes(&g2, 3, ident.SetOf(0), 0); st.Missing != 1 || st.Count != 0 {
		t.Errorf("open-interval stats = %+v", st)
	}
}

func TestReconvergence(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	members := ident.SetOf(0, 1, 2)
	// An episode fully over before the heal must not count.
	l.OnSuspicion(sec(5), 2, 0, true)
	l.OnSuspicion(sec(6), 2, 0, false)
	// Partition-era suspicions, healed at t=20s.
	l.OnSuspicion(sec(16), 0, 1, true)
	l.OnSuspicion(sec(17), 1, 0, true)
	l.OnSuspicion(sec(21), 1, 0, false) // settles 1s after heal
	l.OnSuspicion(sec(22), 0, 1, false) // settles 2s after heal
	settle, clean := JudgeFrom(l).Reconvergence(&g, members, sec(20))
	if !clean || settle != sec(2) {
		t.Errorf("settle=%v clean=%v, want 2s clean", settle, clean)
	}

	// A suspicion that never resolves makes the result unclean.
	l.OnSuspicion(sec(23), 2, 1, true)
	settle, clean = JudgeFrom(l).Reconvergence(&g, members, sec(20))
	if clean {
		t.Error("clean = true with an unresolved post-heal suspicion")
	}
	if settle != sec(2) {
		t.Errorf("settle = %v; open episodes must not extend it", settle)
	}

	// Justified suspicions (subject down) are excluded.
	var g2 GroundTruth
	g2.Crash(1, sec(25))
	l2 := &trace.Log{}
	l2.OnSuspicion(sec(26), 0, 1, true)
	settle, clean = JudgeFrom(l2).Reconvergence(&g2, members, sec(20))
	if !clean || settle != 0 {
		t.Errorf("settle=%v clean=%v, want 0s clean (true detection excluded)", settle, clean)
	}
}

func TestMistakeStorm(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(2, sec(12))
	members := ident.SetOf(0, 1, 2)
	l.OnSuspicion(sec(9), 0, 1, true)  // before the window
	l.OnSuspicion(sec(11), 1, 0, true) // in the window: counts
	l.OnSuspicion(sec(13), 0, 2, true) // in the window but subject is down: true suspicion
	l.OnSuspicion(sec(14), 0, 1, false)
	l.OnSuspicion(sec(15), 0, 1, true) // at the window end: excluded
	if storm := JudgeFrom(l).MistakeStorm(&g, members, sec(10), sec(15)); storm != 1 {
		t.Errorf("storm = %d, want 1", storm)
	}
}

func TestDetectionTimesBasic(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	// Observer 1 detects at 11s, observer 0 at 12s, observer 2 never.
	l.OnSuspicion(sec(11), 1, 3, true)
	l.OnSuspicion(sec(12), 0, 3, true)
	st := JudgeFrom(l).DetectionTimes(&g, 3, ident.SetOf(0, 1, 2))
	if st.Count != 2 || st.Missing != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Min != sec(1) || st.Max != sec(2) || st.Avg != 1500*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
}

func TestDetectionTimesPermanenceRequired(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	// Observer 0 suspects at 11s, revokes at 12s (not permanent), suspects
	// again at 15s (permanent): detection time is 5s, not 1s.
	l.OnSuspicion(sec(11), 0, 3, true)
	l.OnSuspicion(sec(12), 0, 3, false)
	l.OnSuspicion(sec(15), 0, 3, true)
	st := JudgeFrom(l).DetectionTimes(&g, 3, ident.SetOf(0))
	if st.Count != 1 || st.Avg != sec(5) {
		t.Errorf("stats = %+v, want permanent-episode detection at 5s", st)
	}
	// An observer whose final state is "not suspected" counts as missing.
	l2 := &trace.Log{}
	l2.OnSuspicion(sec(11), 0, 3, true)
	l2.OnSuspicion(sec(12), 0, 3, false)
	st2 := JudgeFrom(l2).DetectionTimes(&g, 3, ident.SetOf(0))
	if st2.Count != 0 || st2.Missing != 1 {
		t.Errorf("stats = %+v, want missing", st2)
	}
}

func TestDetectionTimeZeroWhenAlreadySuspected(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	l.OnSuspicion(sec(7), 0, 3, true) // false suspicion that becomes true
	st := JudgeFrom(l).DetectionTimes(&g, 3, ident.SetOf(0))
	if st.Count != 1 || st.Avg != 0 {
		t.Errorf("stats = %+v, want zero detection time", st)
	}
}

func TestDetectionTimesSubjectNeverCrashed(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	st := JudgeFrom(l).DetectionTimes(&g, 3, ident.SetOf(0, 1))
	if st.Count != 0 || st.Missing != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDetectionExcludesSubjectAsObserver(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(3, sec(10))
	l.OnSuspicion(sec(11), 0, 3, true)
	st := JudgeFrom(l).DetectionTimes(&g, 3, ident.SetOf(0, 3))
	if st.Count != 1 || st.Missing != 0 {
		t.Errorf("stats = %+v; the subject itself must not count as observer", st)
	}
}

func TestMistakes(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	members := ident.SetOf(0, 1, 2)
	// Two closed mistakes about p1 (durations 2s and 4s), one open mistake
	// about p2 at the horizon.
	l.OnSuspicion(sec(1), 0, 1, true)
	l.OnSuspicion(sec(3), 0, 1, false)
	l.OnSuspicion(sec(5), 2, 1, true)
	l.OnSuspicion(sec(8), 0, 2, true)
	l.OnSuspicion(sec(9), 2, 1, false)
	st := JudgeFrom(l).Mistakes(&g, members, sec(10))
	if st.Count != 2 || st.Unresolved != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgDuration != sec(3) || st.MaxDuration != sec(4) {
		t.Errorf("durations = %+v", st)
	}
	wantRate := 2.0 / 6.0 / 10.0 // 2 mistakes, 6 ordered pairs, 10 seconds
	if diff := st.Rate - wantRate; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Rate = %v, want %v", st.Rate, wantRate)
	}
}

func TestMistakesExcludeTrueSuspicions(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(1, sec(5))
	l.OnSuspicion(sec(2), 0, 1, true) // started before crash → mistake even though 1 crashes later
	l.OnSuspicion(sec(3), 0, 1, false)
	l.OnSuspicion(sec(6), 0, 1, true) // true detection, not a mistake
	st := JudgeFrom(l).Mistakes(&g, ident.SetOf(0, 1), sec(10))
	if st.Count != 1 {
		t.Errorf("Count = %d, want 1 (pre-crash episode only)", st.Count)
	}
	if st.Unresolved != 0 {
		t.Errorf("Unresolved = %d; open true detection counted as mistake", st.Unresolved)
	}
}

func TestQueryAccuracyPerfect(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	if pa := queryAccuracy(l, &g, ident.SetOf(0, 1, 2), sec(10)); pa != 1 {
		t.Errorf("PA = %v, want 1", pa)
	}
	if pa := queryAccuracy(l, &g, ident.SetOf(0), sec(10)); pa != 1 {
		t.Errorf("PA with one member = %v, want 1", pa)
	}
	if pa := queryAccuracy(l, &g, ident.SetOf(0, 1), 0); pa != 1 {
		t.Errorf("PA with zero horizon = %v, want 1", pa)
	}
}

func TestQueryAccuracyCountsWrongfulTime(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	members := ident.SetOf(0, 1)
	// p0 wrongfully suspects p1 for 2 of 10 seconds; 2 ordered pairs.
	l.OnSuspicion(sec(4), 0, 1, true)
	l.OnSuspicion(sec(6), 0, 1, false)
	pa := queryAccuracy(l, &g, members, sec(10))
	want := 1 - 2.0/(2*10.0)
	if diff := pa - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("PA = %v, want %v", pa, want)
	}
}

func TestQueryAccuracyIgnoresCrashedParties(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(1, sec(0))
	l.OnSuspicion(sec(1), 0, 1, true) // about a crashed subject: not wrongful
	pa := queryAccuracy(l, &g, ident.SetOf(0, 1, 2), sec(10))
	if pa != 1 {
		t.Errorf("PA = %v, want 1 (crashed subject excluded)", pa)
	}
}

func TestQueryAccuracyOpenEpisodeClampedToHorizon(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	l.OnSuspicion(sec(8), 0, 1, true) // open until horizon 10 → 2s wrongful
	pa := queryAccuracy(l, &g, ident.SetOf(0, 1), sec(10))
	want := 1 - 2.0/(2*10.0)
	if diff := pa - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("PA = %v, want %v", pa, want)
	}
}

func TestFalseSuspicionSeries(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	g.Crash(9, sec(0))
	l.OnSuspicion(sec(1), 0, 1, true)
	l.OnSuspicion(sec(2), 0, 9, true) // crashed subject: excluded
	l.OnSuspicion(sec(2), 2, 1, true) // a second pair, never trusted again
	l.OnSuspicion(sec(3), 0, 1, false)
	got := falseSuspicionSeries(l, &g, []time.Duration{0, sec(1), sec(2), sec(3), sec(5)})
	want := []int{0, 1, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestEpisodesIgnoreDuplicateTransitions(t *testing.T) {
	l := &trace.Log{}
	l.OnSuspicion(sec(1), 0, 1, true)
	l.OnSuspicion(sec(2), 0, 1, true) // duplicate suspect
	l.OnSuspicion(sec(3), 0, 1, false)
	l.OnSuspicion(sec(4), 0, 1, false) // duplicate restore
	var g GroundTruth
	st := JudgeFrom(l).Mistakes(&g, ident.SetOf(0, 1), sec(10))
	if st.Count != 1 || st.AvgDuration != sec(2) {
		t.Errorf("stats = %+v, want one 2s episode", st)
	}
}
