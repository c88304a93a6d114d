package qos

import (
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// pairKey packs an (observer, subject) pair into one map key.
type pairKey uint64

func key(observer, subject ident.ID) pairKey {
	return pairKey(uint64(uint32(observer))<<32 | uint64(uint32(subject)))
}

// pair unpacks the key.
func (k pairKey) pair() (observer, subject ident.ID) {
	return ident.ID(uint32(k >> 32)), ident.ID(uint32(k))
}

// Judge is the episode index of one recorded suspicion trace: JudgeFrom
// folds the log, in the time order it keeps, into a flat sparse map of
// suspicion episodes per (observer, subject) pair, and every metric is a
// read-only finalizer over that index. A Judge never changes after
// JudgeFrom returns, so one may be queried from several goroutines, and a
// caller that wants several metrics of a run builds one and asks it
// repeatedly. The sort+rescan implementations the index replaced are the
// oracle of this package's differential tests (legacy_test.go).
type Judge struct {
	// index maps each observed (observer, subject) pair to its suspicion
	// episodes in time order; open ⇔ last episode has end == -1.
	index map[pairKey][]episode
}

// JudgeFrom builds the Judge of a recorded log, folding it in place in one
// pass: the log is in time order, ties in recording order, however it was
// recorded. Events recorded after the call are not seen.
func JudgeFrom(log *trace.Log) *Judge {
	index := make(map[pairKey][]episode)
	log.Each(func(e trace.Event) bool {
		k := key(e.Observer, e.Subject)
		eps := index[k]
		open := len(eps) > 0 && eps[len(eps)-1].end == -1
		if e.Suspected {
			if !open {
				index[k] = append(eps, episode{start: e.At, end: -1})
			}
		} else if open {
			eps[len(eps)-1].end = e.At
		}
		return true
	})
	return &Judge{index: index}
}

// SuspectedInTail returns the set of subjects suspected by any observer at or
// after cut: a subject qualifies when some pair holds a suspicion episode
// that begins at or after the cut, spans it, or never closes. It is the
// episode-index equivalent of scanning the raw trace for post-cut suspicion
// transitions plus probing every pair's state at the cut instant — one pass
// over the index instead of O(pairs·events) — and backs the E6 tail metric.
func (j *Judge) SuspectedInTail(cut time.Duration) ident.Set {
	var out ident.Set
	//fdlint:allow maprange the result is a set: adding subjects to it commutes
	for k, eps := range j.index {
		subject := ident.ID(uint32(k))
		if out.Has(subject) {
			continue
		}
		for _, ep := range eps {
			if ep.start >= cut || ep.end == -1 || ep.end > cut {
				out.Add(subject)
				break
			}
		}
	}
	return out
}

// FalseSuspicionSeries samples how many (observer, correct-subject) pairs are
// in the suspected state at each of the given instants — the data behind the
// "number of false suspicions over time" figure. An episode counts at t when
// it has begun by t and has not ended by it; a subject that crashes at any
// point is left out.
func (j *Judge) FalseSuspicionSeries(truth *GroundTruth, times []time.Duration) []int {
	out := make([]int, len(times))
	//fdlint:allow maprange every episode adds to integer counts, the same in any order
	for k, eps := range j.index {
		if _, subject := k.pair(); truth.Crashed(subject) {
			continue
		}
		for _, ep := range eps {
			for i, t := range times {
				if ep.start <= t && (ep.end == -1 || ep.end > t) {
					out[i]++
				}
			}
		}
	}
	return out
}

// DetectionTimes measures, for a subject that crashed, the time from the
// crash until each observer's *permanent* suspicion (the suspicion episode
// that never ends). Observers already suspecting the subject when it crashed
// count as detection time zero.
func (j *Judge) DetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set) DetectionStats {
	crashAt, ok := truth.CrashTime(subject)
	if !ok {
		return DetectionStats{Missing: observers.Len()}
	}
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		eps := j.index[key(obs, subject)]
		if len(eps) == 0 || eps[len(eps)-1].end != -1 {
			acc.miss()
			return true
		}
		det := eps[len(eps)-1].start - crashAt
		if det < 0 {
			det = 0 // suspected since before the crash
		}
		acc.add(det)
		return true
	})
	return acc.result()
}

// Mistakes counts, over all (observer, subject) pairs among members,
// suspicion episodes of subjects that had not crashed when the episode
// began. It folds over the episodes the trace holds, not over members ×
// members: most pairs of a large cluster never appear in one.
func (j *Judge) Mistakes(truth *GroundTruth, members ident.Set, horizon time.Duration) MistakeStats {
	var stats MistakeStats
	var total time.Duration
	//fdlint:allow maprange every field accumulated is an integer count, sum or max, so the result is the same in any order, byte for byte
	for k, episodes := range j.index {
		obs, subj := k.pair()
		if obs == subj || !members.Has(obs) || !members.Has(subj) {
			continue
		}
		for _, ep := range episodes {
			if truth.DownAt(subj, ep.start) {
				continue // true suspicion
			}
			if ep.end == -1 {
				// Open at the cut: a mistake only if the subject is up
				// at the cut (otherwise it became a true detection).
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
	}
	pairs := members.Len() * (members.Len() - 1)
	if stats.Count > 0 {
		stats.AvgDuration = total / time.Duration(stats.Count)
	}
	if pairs > 0 && horizon > 0 {
		stats.Rate = float64(stats.Count) / float64(pairs) / horizon.Seconds()
	}
	return stats
}

// QueryAccuracy returns P_A: the probability that a random query about a
// random correct process at a random time in [0, horizon] is answered
// correctly (not suspected). Computed as 1 − (aggregate wrongful-suspicion
// time) / (correct-pair count × horizon). Pairs involving a process that
// crashes at any point are excluded entirely, as in the crash-stop metric
// definition; accuracy around recoveries is covered by the dedicated
// recovery metrics (TrustRestorationTimes, Reconvergence, MistakeStorm).
func (j *Judge) QueryAccuracy(truth *GroundTruth, members ident.Set, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 1
	}
	var wrongful time.Duration
	pairs := 0
	members.ForEach(func(obs ident.ID) bool {
		if truth.Crashed(obs) {
			return true // crashed observers stop being queried; skip
		}
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj || truth.Crashed(subj) {
				return true
			}
			pairs++
			for _, ep := range j.index[key(obs, subj)] {
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

// RedetectionTimes measures detection of the subject's k-th downtime (k is a
// 0-based index into truth.Intervals(subject)): the time from the crash
// until each observer's first suspicion episode that begins inside the
// interval; an episode already open when the crash hit counts as detection
// time zero. Observers with no such episode count as Missing — for a closed
// interval that means the crash went unnoticed before the process came back.
// With k = 0 on a crash-stop record this generalizes DetectionTimes, except
// that the detecting episode need not be permanent (a recovered process is
// legitimately un-suspected later).
func (j *Judge) RedetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) {
		return DetectionStats{Missing: observers.Len()}
	}
	iv := ivs[k]
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		det := time.Duration(-1)
		for _, ep := range j.index[key(obs, subject)] {
			if ep.start <= iv.Start && (ep.end == -1 || ep.end > iv.Start) {
				det = 0 // suspected since before the crash
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

// TrustRestorationTimes measures, after the subject's k-th downtime ends,
// how long the observers still suspecting it at the recovery instant take to
// trust it again: the end of the suspicion episode covering the recovery,
// minus the recovery time. Observers not suspecting the subject when it
// recovered are not counted at all; observers whose episode never closes
// count as Missing (the restarted process was never re-trusted within the
// horizon). An open k-th interval (no recovery) reports every observer as
// Missing.
func (j *Judge) TrustRestorationTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) || ivs[k].Open() {
		return DetectionStats{Missing: observers.Len()}
	}
	r := ivs[k].End
	var acc detAccum
	observers.ForEach(func(obs ident.ID) bool {
		if obs == subject {
			return true
		}
		for _, ep := range j.index[key(obs, subject)] {
			if ep.start > r {
				break // not suspecting at the recovery instant
			}
			if ep.end != -1 && ep.end <= r {
				continue
			}
			// Episode covers r.
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

// Reconvergence measures the settle time after `from` (typically a heal or a
// recovery): how long until the last wrongful suspicion among members is
// corrected, and whether every one of them was (clean). A suspicion episode
// counts when it is active at `from`, or begins after it while its subject
// is up; the settle time is the largest episode end minus `from` — zero when
// nothing was wrongfully suspected from `from` on. Episodes still open at
// the end of the trace make the result unclean and do not extend the settle
// time.
func (j *Judge) Reconvergence(truth *GroundTruth, members ident.Set, from time.Duration) (settle time.Duration, clean bool) {
	clean = true
	members.ForEach(func(obs ident.ID) bool {
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj {
				return true
			}
			for _, ep := range j.index[key(obs, subj)] {
				activeAt := ep.start
				if activeAt < from {
					if ep.end != -1 && ep.end <= from {
						continue // over before `from`
					}
					activeAt = from
				}
				if truth.DownAt(subj, activeAt) {
					continue // justified suspicion
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

// MistakeStorm counts the false-suspicion episodes that begin inside
// [start, end) — the mistake burst a partition window or a restart provokes.
// An episode is false when its subject is not down at the instant it begins.
func (j *Judge) MistakeStorm(truth *GroundTruth, members ident.Set, start, end time.Duration) int {
	storm := 0
	members.ForEach(func(obs ident.ID) bool {
		members.ForEach(func(subj ident.ID) bool {
			if obs == subj {
				return true
			}
			for _, ep := range j.index[key(obs, subj)] {
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
