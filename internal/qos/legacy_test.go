package qos

// The Legacy* functions are the pre-Judge metric implementations: one stable
// sort of the whole log plus an O(pairs·E) rescan per metric call. They are
// the reference side of the differential tests that hold Fold and the Judge
// byte-identical to them — judge_test.go on random traces, fold_test.go on
// fuzzed scripts, scenario_test.go
// (package qos_test, which sees them because they are exported) on traces
// recorded from simulated clusters — the same way internal/des keeps a
// linear-scan reference scheduler as the kernel's oracle in model_test.go.

import (
	"sort"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// episode is a [start, end) interval during which observer suspected
// subject; end = -1 marks an episode still open at the end of the trace.
type episode struct {
	start, end time.Duration
}

// episodes reconstructs the suspicion intervals of (observer, subject) by
// scanning the full event slice — the rescan Fold replaces.
func episodes(events []trace.Event, observer, subject ident.ID) []episode {
	var out []episode
	open := -1
	for _, e := range events {
		if e.Observer != observer || e.Subject != subject {
			continue
		}
		if e.Suspected {
			if open == -1 {
				out = append(out, episode{start: e.At, end: -1})
				open = len(out) - 1
			}
		} else if open != -1 {
			out[open].end = e.At
			open = -1
		}
	}
	return out
}

// sortedEvents returns the log's events in time order (stable).
func sortedEvents(log *trace.Log) []trace.Event {
	events := log.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// LegacyDetectionTimes is the pre-Judge DetectionTimes, kept as the
// differential-test reference.
func LegacyDetectionTimes(log *trace.Log, truth *GroundTruth, subject ident.ID, observers ident.Set) DetectionStats {
	crashAt, ok := truth.CrashTime(subject)
	if !ok {
		return DetectionStats{Missing: observers.Len()}
	}
	events := sortedEvents(log)
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		eps := episodes(events, obs, subject)
		if len(eps) == 0 || eps[len(eps)-1].end != -1 {
			acc.miss()
			return true
		}
		det := eps[len(eps)-1].start - crashAt
		if det < 0 {
			det = 0
		}
		acc.add(det)
		return true
	})
	return acc.result()
}

// LegacyMistakes is the pre-Judge Mistakes, kept as the differential-test
// reference.
func LegacyMistakes(log *trace.Log, truth *GroundTruth, members ident.Set, horizon time.Duration) MistakeStats {
	events := sortedEvents(log)
	var stats MistakeStats
	var total time.Duration
	pairs := 0
	members.ForEach(func(obs ident.ID) bool {
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj {
				return true
			}
			pairs++
			for _, ep := range episodes(events, obs, subj) {
				if truth.DownAt(subj, ep.start) {
					continue
				}
				if ep.end == -1 {
					if !truth.DownAt(subj, horizon) {
						stats.Unresolved++
					}
					continue
				}
				stats.Count++
				d := ep.end - ep.start
				total += d
				if d > stats.MaxDuration {
					stats.MaxDuration = d
				}
			}
			return true
		})
		return true
	})
	if stats.Count > 0 {
		stats.AvgDuration = total / time.Duration(stats.Count)
	}
	if pairs > 0 && horizon > 0 {
		stats.Rate = float64(stats.Count) / float64(pairs) / horizon.Seconds()
	}
	return stats
}

// LegacyQueryAccuracy is the pre-Judge QueryAccuracy, kept as the
// differential-test reference.
func LegacyQueryAccuracy(log *trace.Log, truth *GroundTruth, members ident.Set, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 1
	}
	events := sortedEvents(log)
	var wrongful time.Duration
	pairs := 0
	members.ForEach(func(obs ident.ID) bool {
		if truth.Crashed(obs) {
			return true
		}
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj || truth.Crashed(subj) {
				return true
			}
			pairs++
			for _, ep := range episodes(events, obs, subj) {
				end := ep.end
				if end == -1 || end > horizon {
					end = horizon
				}
				if end > ep.start {
					wrongful += end - ep.start
				}
			}
			return true
		})
		return true
	})
	if pairs == 0 {
		return 1
	}
	frac := float64(wrongful) / (float64(pairs) * float64(horizon))
	return 1 - frac
}

// LegacyRedetectionTimes is the pre-Judge RedetectionTimes, kept as the
// differential-test reference.
func LegacyRedetectionTimes(log *trace.Log, truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) {
		return DetectionStats{Missing: observers.Len()}
	}
	iv := ivs[k]
	events := sortedEvents(log)
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		det := time.Duration(-1)
		for _, ep := range episodes(events, obs, subject) {
			if ep.start <= iv.Start && (ep.end == -1 || ep.end > iv.Start) {
				det = 0
				break
			}
			if ep.start >= iv.Start && (iv.Open() || ep.start < iv.End) {
				det = ep.start - iv.Start
				break
			}
		}
		if det < 0 {
			acc.miss()
			return true
		}
		acc.add(det)
		return true
	})
	return acc.result()
}

// LegacyTrustRestorationTimes is the pre-Judge TrustRestorationTimes, kept
// as the differential-test reference.
func LegacyTrustRestorationTimes(log *trace.Log, truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) || ivs[k].Open() {
		return DetectionStats{Missing: observers.Len()}
	}
	r := ivs[k].End
	events := sortedEvents(log)
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		for _, ep := range episodes(events, obs, subject) {
			if ep.start > r {
				break
			}
			if ep.end != -1 && ep.end <= r {
				continue
			}
			if ep.end == -1 {
				acc.miss()
				return true
			}
			acc.add(ep.end - r)
			return true
		}
		return true
	})
	return acc.result()
}

// LegacyReconvergence is the pre-Judge Reconvergence, kept as the
// differential-test reference.
func LegacyReconvergence(log *trace.Log, truth *GroundTruth, members ident.Set, from time.Duration) (settle time.Duration, clean bool) {
	events := sortedEvents(log)
	clean = true
	members.ForEach(func(obs ident.ID) bool {
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj {
				return true
			}
			for _, ep := range episodes(events, obs, subj) {
				activeAt := ep.start
				if activeAt < from {
					if ep.end != -1 && ep.end <= from {
						continue
					}
					activeAt = from
				}
				if truth.DownAt(subj, activeAt) {
					continue
				}
				if ep.end == -1 {
					clean = false
					continue
				}
				if d := ep.end - from; d > settle {
					settle = d
				}
			}
			return true
		})
		return true
	})
	return settle, clean
}

// LegacyMistakeStorm is the pre-Judge MistakeStorm, kept as the
// differential-test reference.
func LegacyMistakeStorm(log *trace.Log, truth *GroundTruth, members ident.Set, start, end time.Duration) int {
	events := sortedEvents(log)
	storm := 0
	members.ForEach(func(obs ident.ID) bool {
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj {
				return true
			}
			for _, ep := range episodes(events, obs, subj) {
				if ep.start < start || ep.start >= end {
					continue
				}
				if !truth.DownAt(subj, ep.start) {
					storm++
				}
			}
			return true
		})
		return true
	})
	return storm
}

// LegacyFalseSuspicionSeries is the pre-Judge FalseSuspicionSeries (it was
// trace.Log.SuspicionCountSeries behind a never-crashed filter): one pass over
// the time-sorted events carrying the set of pairs currently suspected, read
// off at each instant of times, which must ascend.
func LegacyFalseSuspicionSeries(log *trace.Log, truth *GroundTruth, times []time.Duration) []int {
	events := sortedEvents(log)
	active := make(map[pairKey]bool)
	out := make([]int, len(times))
	idx := 0
	for i, t := range times {
		for ; idx < len(events) && events[idx].At <= t; idx++ {
			e := events[idx]
			if truth.Crashed(e.Subject) {
				continue
			}
			if e.Suspected {
				active[key(e.Observer, e.Subject)] = true
			} else {
				delete(active, key(e.Observer, e.Subject))
			}
		}
		out[i] = len(active)
	}
	return out
}

// LegacySuspectedInTail is the pre-fold SuspectedInTail rebuilt on the
// rescan: every pair the log holds, its episodes reconstructed from the
// sorted events, a subject kept when one of them begins at or after the
// cut, spans it, or never closes.
func LegacySuspectedInTail(log *trace.Log, cut time.Duration) ident.Set {
	events := sortedEvents(log)
	var out ident.Set
	seen := make(map[pairKey]bool)
	for _, e := range events {
		if seen[key(e.Observer, e.Subject)] {
			continue
		}
		seen[key(e.Observer, e.Subject)] = true
		for _, ep := range episodes(events, e.Observer, e.Subject) {
			if ep.start >= cut || ep.end == -1 || ep.end > cut {
				out.Add(e.Subject)
				break
			}
		}
	}
	return out
}
