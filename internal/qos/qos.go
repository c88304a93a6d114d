// Package qos computes quality-of-service metrics of failure detectors from
// recorded suspicion traces, following the taxonomy of Chen, Toueg and
// Aguilera: detection time, mistake rate, mistake duration and query
// accuracy probability. Ground truth is interval-based (processes may crash,
// recover and crash again), which adds the recovery-aware metrics of the
// crash-recovery QoS literature: re-detection time per downtime, trust
// restoration after a restart, re-convergence after a heal, and
// partition-window mistake storms. The experiment harness reduces every
// table of the reconstructed evaluation to these numbers.
//
// Metrics are computed by one fold: Fold walks a recorded trace.Log once,
// in the time order the log keeps, and hands each suspicion episode to
// every Metric it was given as the episode closes. It keeps one open-episode
// start per (observer, subject) pair and stores no episode, so judging costs
// memory in the pairs a trace names, not in its transitions, and time in one
// pass however many metrics are asked — what keeps judging the n=1024–4096
// topology cells small. A caller builds every metric it wants of a run
// (NewMistakes, NewDetectionTimes, ...) and folds the trace once.
// Judge asks for one metric per fold. The one-sort-plus-rescan-per-call
// implementations the fold replaced are the oracle of the package's
// differential tests (legacy_test.go), which hold every metric
// byte-identical to them.
//
// These are the per-run scalar metrics; across an R-seed family
// (internal/exp Options.Repeat) they become the sampled distributions —
// mean/stderr/ci95/percentiles — of the asyncfd-bench/v2 rows described
// in the repository README ("Reading BENCH_*.json") and
// docs/BENCHMARKS.md. Duration-valued metrics enter those rows in
// milliseconds via Millis.
package qos

import (
	"fmt"
	"time"

	"asyncfd/internal/ident"
)

// Millis converts a duration to float64 milliseconds — the unit every
// duration-valued metric row of the asyncfd-bench/v2 schema uses (see
// cmd/fdbench and docs/BENCHMARKS.md).
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Interval is one [Start, End) downtime window of a process. End = -1 marks
// an interval still open at the end of the record (the process never
// recovered).
type Interval struct {
	Start, End time.Duration
}

// Open reports whether the interval never closes.
func (iv Interval) Open() bool { return iv.End < 0 }

// Covers reports whether the interval contains time at (Start inclusive,
// End exclusive).
func (iv Interval) Covers(at time.Duration) bool {
	return at >= iv.Start && (iv.Open() || at < iv.End)
}

// GroundTruth is the fault-injection record a trace is judged against: for
// every process, the intervals during which it was down. The zero value (no
// faults) is ready to use. A crash-stop run records one open interval per
// crashed process; a crash-recovery run closes an interval at each recovery
// and opens a new one at each later crash. Crash and Recover must be called
// in non-decreasing time order per process (fault schedules are applied in
// time order); out-of-order timestamps panic, since they would silently
// record negative-length or overlapping downtime intervals and corrupt
// every metric judged against them.
type GroundTruth struct {
	downs map[ident.ID][]Interval
}

// Crash records that id went down at time at, opening a downtime interval.
// Crashing a process that is already down is a no-op. A crash before the
// process's previous recovery instant panics (the previous interval would
// overlap this one); a crash exactly at the recovery instant is allowed and
// opens a back-to-back interval.
func (g *GroundTruth) Crash(id ident.ID, at time.Duration) {
	ivs := g.downs[id]
	if len(ivs) > 0 {
		if last := ivs[len(ivs)-1]; last.Open() {
			return
		} else if at < last.End {
			panic(fmt.Sprintf("qos: Crash(%v, %v) before previous recovery at %v", id, at, last.End))
		}
	}
	if g.downs == nil {
		g.downs = make(map[ident.ID][]Interval)
	}
	g.downs[id] = append(ivs, Interval{Start: at, End: -1})
}

// Recover records that id came back up at time at, closing its open
// downtime interval. Recovering a process that is not down is a no-op. A
// recovery before the open interval's crash instant panics (it would record
// a negative-length downtime); a recovery exactly at the crash instant is
// allowed and closes the interval to zero length.
func (g *GroundTruth) Recover(id ident.ID, at time.Duration) {
	ivs := g.downs[id]
	if len(ivs) == 0 || !ivs[len(ivs)-1].Open() {
		return
	}
	if at < ivs[len(ivs)-1].Start {
		panic(fmt.Sprintf("qos: Recover(%v, %v) before crash at %v", id, at, ivs[len(ivs)-1].Start))
	}
	ivs[len(ivs)-1].End = at
}

// CrashTime returns when id first crashed.
func (g *GroundTruth) CrashTime(id ident.ID) (time.Duration, bool) {
	ivs := g.downs[id]
	if len(ivs) == 0 {
		return 0, false
	}
	return ivs[0].Start, true
}

// Crashed reports whether id ever crashes in this run.
func (g *GroundTruth) Crashed(id ident.ID) bool {
	return len(g.downs[id]) > 0
}

// DownAt reports whether id is down at time at: some downtime interval
// covers it (crash instants inclusive, recovery instants exclusive).
func (g *GroundTruth) DownAt(id ident.ID, at time.Duration) bool {
	for _, iv := range g.downs[id] {
		if iv.Covers(at) {
			return true
		}
	}
	return false
}

// Intervals returns a copy of id's downtime intervals in time order.
func (g *GroundTruth) Intervals(id ident.ID) []Interval {
	ivs := g.downs[id]
	if len(ivs) == 0 {
		return nil
	}
	out := make([]Interval, len(ivs))
	copy(out, ivs)
	return out
}

// DetectionStats summarizes how fast the observers permanently detected one
// crash.
type DetectionStats struct {
	// Avg, Min, Max are over the observers that did permanently detect.
	Avg, Min, Max time.Duration
	// Count is the number of observers that permanently detected.
	Count int
	// Missing is the number of observers that never did (completeness
	// violations within the observed horizon).
	Missing int
}

// detAccum folds per-observer detection durations into a DetectionStats,
// maintaining count/sum/min/max; result() finalizes the average. It is the
// accumulator of every Detection.
type detAccum struct {
	stats DetectionStats
	total time.Duration
}

func (a *detAccum) add(det time.Duration) {
	if a.stats.Count == 0 || det < a.stats.Min {
		a.stats.Min = det
	}
	if a.stats.Count == 0 || det > a.stats.Max {
		a.stats.Max = det
	}
	a.stats.Count++
	a.total += det
}

func (a *detAccum) miss() { a.stats.Missing++ }

func (a *detAccum) result() DetectionStats {
	if a.stats.Count > 0 {
		a.stats.Avg = a.total / time.Duration(a.stats.Count)
	}
	return a.stats
}

// MistakeStats summarizes false suspicions of correct (or not-yet-crashed)
// subjects.
type MistakeStats struct {
	// Count is the number of closed false-suspicion episodes.
	Count int
	// Unresolved is the number of false-suspicion episodes still open at
	// the end of the horizon (accuracy violations at the cut).
	Unresolved int
	// AvgDuration and MaxDuration describe closed episodes (T_M).
	AvgDuration, MaxDuration time.Duration
	// Rate is closed episodes per observer-subject pair per second (λ_M).
	Rate float64
}
