package qos

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/raceflag"
	"asyncfd/internal/trace"
)

// window holds the instants the differential cases judge at: the horizon of
// Mistakes and QueryAccuracy, Reconvergence's from, MistakeStorm's
// [stormFrom, stormTo) and SuspectedInTail's cut.
type window struct {
	horizon, from, stormFrom, stormTo, cut time.Duration
}

// oracleCase is one metric of the differential tests: a fresh accumulator,
// its value once folded, the Judge method asking for it (nil if there is
// none), and what the legacy oracle says.
type oracleCase struct {
	name   string
	metric func() Metric
	result func(Metric) any
	judge  func(*Judge) any
	want   any
}

// oracleCases builds every metric of the package over n processes: the
// three detection rules for every subject and downtimes 0–2, Mistakes over
// all members and over some of them, and one each of the other five.
func oracleCases(log *trace.Log, truth *GroundTruth, n int, some ident.Set, w window) []oracleCase {
	members := ident.FullSet(n)
	detection := func(m Metric) any { return m.(*Detection).Result() }
	var cases []oracleCase
	for id := 0; id < n; id++ {
		subj := ident.ID(id)
		cases = append(cases, oracleCase{
			name:   fmt.Sprintf("DetectionTimes(%v)", subj),
			metric: func() Metric { return NewDetectionTimes(truth, subj, members) },
			result: detection,
			judge:  func(j *Judge) any { return j.DetectionTimes(truth, subj, members) },
			want:   LegacyDetectionTimes(log, truth, subj, members),
		})
		for k := 0; k < 3; k++ {
			cases = append(cases, oracleCase{
				name:   fmt.Sprintf("RedetectionTimes(%v, %d)", subj, k),
				metric: func() Metric { return NewRedetectionTimes(truth, subj, members, k) },
				result: detection,
				judge:  func(j *Judge) any { return j.RedetectionTimes(truth, subj, members, k) },
				want:   LegacyRedetectionTimes(log, truth, subj, members, k),
			}, oracleCase{
				name:   fmt.Sprintf("TrustRestorationTimes(%v, %d)", subj, k),
				metric: func() Metric { return NewTrustRestorationTimes(truth, subj, members, k) },
				result: detection,
				judge:  func(j *Judge) any { return j.TrustRestorationTimes(truth, subj, members, k) },
				want:   LegacyTrustRestorationTimes(log, truth, subj, members, k),
			})
		}
	}
	for _, set := range []ident.Set{members, some} {
		cases = append(cases, oracleCase{
			name:   fmt.Sprintf("Mistakes among %v", set),
			metric: func() Metric { return NewMistakes(truth, set, w.horizon) },
			result: func(m Metric) any { return m.(*Mistakes).Result() },
			judge:  func(j *Judge) any { return j.Mistakes(truth, set, w.horizon) },
			want:   LegacyMistakes(log, truth, set, w.horizon),
		})
	}
	type settled struct {
		settle time.Duration
		clean  bool
	}
	settle, clean := LegacyReconvergence(log, truth, members, w.from)
	// The series is sampled where the answer can change — the instant of
	// every event (episodes begin and end there) — and before and after
	// them all.
	times := []time.Duration{0, w.horizon + time.Second}
	for _, e := range log.Events() {
		times = append(times, e.At)
	}
	slices.Sort(times)
	return append(cases,
		oracleCase{
			name:   "QueryAccuracy",
			metric: func() Metric { return NewQueryAccuracy(truth, members, w.horizon) },
			result: func(m Metric) any { return m.(*QueryAccuracy).Result() },
			want:   LegacyQueryAccuracy(log, truth, members, w.horizon),
		},
		oracleCase{
			name:   "Reconvergence",
			metric: func() Metric { return NewReconvergence(truth, members, w.from) },
			result: func(m Metric) any {
				s, c := m.(*Reconvergence).Result()
				return settled{s, c}
			},
			judge: func(j *Judge) any {
				s, c := j.Reconvergence(truth, members, w.from)
				return settled{s, c}
			},
			want: settled{settle, clean},
		},
		oracleCase{
			name:   "MistakeStorm",
			metric: func() Metric { return NewMistakeStorm(truth, members, w.stormFrom, w.stormTo) },
			result: func(m Metric) any { return m.(*MistakeStorm).Result() },
			judge:  func(j *Judge) any { return j.MistakeStorm(truth, members, w.stormFrom, w.stormTo) },
			want:   LegacyMistakeStorm(log, truth, members, w.stormFrom, w.stormTo),
		},
		oracleCase{
			name:   "FalseSuspicionSeries",
			metric: func() Metric { return NewFalseSuspicionSeries(truth, times) },
			result: func(m Metric) any { return m.(*FalseSuspicionSeries).Result() },
			want:   LegacyFalseSuspicionSeries(log, truth, times),
		},
		oracleCase{
			name:   "SuspectedInTail",
			metric: func() Metric { return NewSuspectedInTail(w.cut) },
			result: func(m Metric) any { return m.(*SuspectedInTail).Result().String() },
			want:   LegacySuspectedInTail(log, w.cut).String(),
		},
	)
}

// checkFold folds every case's metric together in one pass, then each one
// alone, then asks the Judge, and holds all three to the oracle: a metric
// sharing state with another would answer differently in company.
func checkFold(t *testing.T, what string, log *trace.Log, cases []oracleCase) {
	t.Helper()
	all := make([]Metric, len(cases))
	for i, c := range cases {
		all[i] = c.metric()
	}
	Fold(log, all...)
	j := JudgeFrom(log)
	for i, c := range cases {
		if got := c.result(all[i]); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: %s in one fold of all = %+v, legacy %+v", what, c.name, got, c.want)
		}
		alone := c.metric()
		Fold(log, alone)
		if got := c.result(alone); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: %s folded alone = %+v, legacy %+v", what, c.name, got, c.want)
		}
		if c.judge == nil {
			continue
		}
		if got := c.judge(j); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: Judge.%s = %+v, legacy %+v", what, c.name, got, c.want)
		}
	}
}

// runFoldScript builds a log and a crash-recovery ground truth from a byte
// script and checks one fold of every metric against the oracle. data[0]
// picks n (2–6) and data[1] the member subset Mistakes is also judged
// among; the rest is four-byte ops (op, a, b, c) over the pair (b%n, c%n),
// where bit 3 of op is a record's flag and time advances in milliseconds:
//
//	op%6 == 0: a record a%8 ms after the latest one
//	op%6 == 1: a record at the latest instant (a tie)
//	op%6 == 2: a record at the latest instant, as op%6 == 1: the log
//	           takes no record earlier than its last (the seed
//	           out_of_order_inserts is named for the earlier records this
//	           op made when it did)
//	op%6 == 3: two suspicions a%4 ms after the latest one (a duplicate)
//	op%6 == 4: two trusts a%4 ms after the latest one (the second has no
//	           open episode)
//	op%6 == 5: the truth's own clock advances a%16 ms, and c%n crashes (b
//	           even) or recovers (b odd)
//
// Episodes a script leaves open stay open at the end of the log. The
// windows judged at are fractions of the latest instant.
func runFoldScript(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n := 2 + int(data[0])%5
	var some ident.Set
	for id := 0; id < n; id++ {
		if data[1]&(1<<id) != 0 {
			some.Add(ident.ID(id))
		}
	}
	log := &trace.Log{}
	var truth GroundTruth
	var last, truthAt time.Duration
	record := func(at time.Duration, obs, subj ident.ID, suspected bool) {
		log.OnSuspicion(at, obs, subj, suspected)
		last = at
	}
	for ops := data[2:]; len(ops) >= 4; ops = ops[4:] {
		op, a := ops[0], time.Duration(ops[1])
		obs, subj := ident.ID(int(ops[2])%n), ident.ID(int(ops[3])%n)
		flag := op&8 != 0
		switch op % 6 {
		case 0:
			record(last+a%8*time.Millisecond, obs, subj, flag)
		case 1, 2:
			record(last, obs, subj, flag)
		case 3, 4:
			at := last + a%4*time.Millisecond
			record(at, obs, subj, op%6 == 3)
			record(at, obs, subj, op%6 == 3)
		case 5:
			truthAt += a % 16 * time.Millisecond
			if ops[2]%2 == 0 {
				truth.Crash(subj, truthAt)
			} else {
				truth.Recover(subj, truthAt)
			}
		}
	}
	w := window{horizon: last * 3 / 4, from: last / 2, stormFrom: last / 4, stormTo: last * 3 / 4, cut: last / 2}
	checkFold(t, "script", log, oracleCases(log, &truth, n, some, w))
}

// FuzzFoldMatchesLegacy holds one fold of all nine metrics — and each one
// alone, and the Judge — to the legacy sort+rescan oracle on logs built
// from byte scripts (see runFoldScript). Seeds, one per edge case, are in
// testdata/fuzz/FuzzFoldMatchesLegacy.
func FuzzFoldMatchesLegacy(f *testing.F) {
	f.Fuzz(runFoldScript)
}

// TestJudgeSeesLogAtCall: a Judge reads the log as long as it was at
// JudgeFrom, so an event appended later does not close an episode it saw
// open, while a fold after the append sees it.
func TestJudgeSeesLogAtCall(t *testing.T) {
	l := &trace.Log{}
	var g GroundTruth
	l.OnSuspicion(sec(1), 0, 1, true)
	j := JudgeFrom(l)
	l.OnSuspicion(sec(3), 0, 1, false)
	if st := j.Mistakes(&g, ident.SetOf(0, 1), sec(10)); st.Count != 0 || st.Unresolved != 1 {
		t.Errorf("Judge after an append = %+v, want the episode still open", st)
	}
	m := NewMistakes(&g, ident.SetOf(0, 1), sec(10))
	Fold(l, m)
	if st := m.Result(); st.Count != 1 || st.Unresolved != 0 || st.AvgDuration != sec(2) {
		t.Errorf("Fold after the append = %+v, want one closed 2s episode", st)
	}
}

// churnMetrics builds the five metrics the churn-family workload asks of
// each replicate (bench/workloads/sim_churn_family.json): a storm over
// [8 s, 36 s), reconvergence after 36 s, detection of p31, re-detection of
// p28's second downtime and trust restoration after its first, over
// observers p0–p23.
func churnMetrics(truth *GroundTruth) []Metric {
	members, observers := ident.FullSet(32), ident.FullSet(24)
	return []Metric{
		NewMistakeStorm(truth, members, 8*time.Second, 36*time.Second),
		NewReconvergence(truth, members, 36*time.Second),
		NewDetectionTimes(truth, 31, observers),
		NewRedetectionTimes(truth, 28, observers, 1),
		NewTrustRestorationTimes(truth, 28, observers, 0),
	}
}

// TestAllocsFoldPerPair: Fold keeps one open-episode start per pair and no
// episode, so folding BenchmarkJudgeFrom's whole log allocates no more than
// folding its first 16 384 events, which already name all 992 pairs.
func TestAllocsFoldPerPair(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime allocates")
	}
	truth := churnTruth()
	allocs := func(l *trace.Log) float64 {
		return testing.AllocsPerRun(5, func() { Fold(l, churnMetrics(truth)...) })
	}
	full, prefix := allocs(churnLog(165152)), allocs(churnLog(16384))
	if full > prefix {
		t.Errorf("Fold of 165 152 events allocates %v times, of 16 384 events %v: memory grows with episodes", full, prefix)
	}
}

// BenchmarkFold: one op folds BenchmarkJudgeFrom's log once for the churn
// family's five metrics — what BenchmarkJudgeFrom asks through the Judge.
func BenchmarkFold(b *testing.B) {
	l, truth := churnLog(165152), churnTruth()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fold(l, churnMetrics(truth)...)
	}
}
