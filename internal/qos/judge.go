package qos

import (
	"math"
	"math/bits"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// pairKey packs an (observer, subject) pair into one key.
type pairKey uint64

func key(observer, subject ident.ID) pairKey {
	return pairKey(uint64(uint32(observer))<<32 | uint64(uint32(subject)))
}

// pair unpacks the key.
func (k pairKey) pair() (observer, subject ident.ID) {
	return ident.ID(uint32(k >> 32)), ident.ID(uint32(k))
}

// Metric is one QoS metric accumulating over the suspicion episodes of a
// trace. The New* constructors of this package build them; Fold feeds them;
// each one's Result reads the value. A metric is folded once.
type Metric interface {
	// episode takes one suspicion episode [start, end) of observer about
	// subject; end = -1 marks one still open at the end of the trace. A
	// pair's episodes arrive in time order, interleaved with other pairs'.
	episode(observer, subject ident.ID, start, end time.Duration)
}

// openPair is Fold's state for one (observer, subject) pair: the start of
// its open suspicion episode, if it has one.
type openPair struct {
	key   pairKey
	start time.Duration
	open  bool
}

// pairTable holds Fold's pairs in first-appearance order, with an
// open-addressing index over them: a power-of-two array of slot+1 (0 =
// empty), probed linearly from the key's home slot and doubled at 3/4 load. Unlike a Go map, whose hash seed varies per map, what it allocates
// depends only on the number of pairs.
type pairTable struct {
	index []int32
	shift uint
	pairs []openPair
}

// get returns k's pair, appending it if k is new.
func (t *pairTable) get(k pairKey) *openPair {
	if 4*len(t.pairs) >= 3*len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	for h := t.home(k); ; h = (h + 1) & mask {
		switch i := t.index[h]; {
		case i == 0:
			t.pairs = append(t.pairs, openPair{key: k})
			t.index[h] = int32(len(t.pairs))
			return &t.pairs[len(t.pairs)-1]
		case t.pairs[i-1].key == k:
			return &t.pairs[i-1]
		}
	}
}

// home is k's first slot in the index: the top bits of its Fibonacci hash.
func (t *pairTable) home(k pairKey) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 >> t.shift }

// grow doubles the index (16 slots at first) and re-inserts every pair.
func (t *pairTable) grow() {
	size := max(2*len(t.index), 16)
	t.index, t.shift = make([]int32, size), uint(64-bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for i, p := range t.pairs {
		h := t.home(p.key)
		for t.index[h] != 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(i + 1)
	}
}

// Fold judges a recorded log: it walks the events once, in the time order
// the log keeps (ties in recording order), and hands every suspicion episode
// to each metric as it closes, then the episodes still open at the end, in
// the order their pairs first appear. It keeps one open-episode start per
// pair and stores no episode, so a caller that wants several metrics of a
// run folds once with all of them.
func Fold(log *trace.Log, metrics ...Metric) {
	foldPrefix(log, math.MaxInt, metrics)
}

// foldPrefix is Fold over the first n events of the log.
func foldPrefix(log *trace.Log, n int, metrics []Metric) {
	var pairs pairTable
	emit := func(k pairKey, start, end time.Duration) {
		observer, subject := k.pair()
		for _, m := range metrics {
			m.episode(observer, subject, start, end)
		}
	}
	log.Each(func(e trace.Event) bool {
		if n == 0 {
			return false
		}
		n--
		p := pairs.get(key(e.Observer, e.Subject))
		if e.Suspected {
			if !p.open {
				p.start, p.open = e.At, true
			}
		} else if p.open {
			emit(p.key, p.start, e.At)
			p.open = false
		}
		return true
	})
	for _, p := range pairs.pairs {
		if p.open {
			emit(p.key, p.start, -1)
		}
	}
}

// Judge asks one metric at a time of a recorded log: each method folds the
// log for that metric alone. JudgeFrom records the log's length, and every
// fold reads that many events, so events appended after the call are not
// seen. A Judge must not outlive a TruncateTo of its log below that length.
// Methods may be called from several goroutines. A caller wanting more than
// one metric of a trace calls Fold once instead.
type Judge struct {
	log *trace.Log
	n   int
}

// JudgeFrom returns the Judge of a recorded log at its current length.
func JudgeFrom(log *trace.Log) *Judge { return &Judge{log: log, n: log.Len()} }

// judged folds the judge's log for m alone and returns m.
func judged[M Metric](j *Judge, m M) M {
	foldPrefix(j.log, j.n, []Metric{m})
	return m
}

// DetectionTimes is NewDetectionTimes folded alone.
func (j *Judge) DetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set) DetectionStats {
	return judged(j, NewDetectionTimes(truth, subject, observers)).Result()
}

// RedetectionTimes is NewRedetectionTimes folded alone.
func (j *Judge) RedetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	return judged(j, NewRedetectionTimes(truth, subject, observers, k)).Result()
}

// TrustRestorationTimes is NewTrustRestorationTimes folded alone.
func (j *Judge) TrustRestorationTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) DetectionStats {
	return judged(j, NewTrustRestorationTimes(truth, subject, observers, k)).Result()
}

// Mistakes is NewMistakes folded alone.
func (j *Judge) Mistakes(truth *GroundTruth, members ident.Set, horizon time.Duration) MistakeStats {
	return judged(j, NewMistakes(truth, members, horizon)).Result()
}

// Reconvergence is NewReconvergence folded alone.
func (j *Judge) Reconvergence(truth *GroundTruth, members ident.Set, from time.Duration) (settle time.Duration, clean bool) {
	return judged(j, NewReconvergence(truth, members, from)).Result()
}

// MistakeStorm is NewMistakeStorm folded alone.
func (j *Judge) MistakeStorm(truth *GroundTruth, members ident.Set, start, end time.Duration) int {
	return judged(j, NewMistakeStorm(truth, members, start, end)).Result()
}

// detectionRule names the episode that decides an observer of a Detection.
type detectionRule uint8

const (
	ruleFinal    detectionRule = iota // the episode that never ends
	ruleRedetect                      // the first episode covering the crash or beginning inside the downtime
	ruleRestore                       // the episode covering the recovery
)

// Detection measures, per observer of one subject, the time from a crash
// (or a recovery) to the episode that decides that observer; the three
// constructors name the rule. The first deciding episode of a pair counts
// and later ones are ignored.
type Detection struct {
	rule      detectionRule
	subject   ident.ID
	observers ident.Set
	iv        Interval  // the downtime measured from
	void      bool      // no such downtime: every observer is Missing
	pending   ident.Set // the observers no episode has decided yet
	acc       detAccum
}

// newDetection builds a Detection of subject's downtime iv; ok = false when
// the truth has no such downtime.
func newDetection(rule detectionRule, subject ident.ID, observers ident.Set, iv Interval, ok bool) *Detection {
	d := &Detection{rule: rule, subject: subject, observers: observers, iv: iv, void: !ok}
	if ok {
		d.pending = observers.Clone()
		d.pending.Remove(subject)
	}
	return d
}

// NewDetectionTimes measures, for a subject that crashed, the time from the
// crash until each observer's *permanent* suspicion (the suspicion episode
// that never ends). Observers already suspecting the subject when it crashed
// count as detection time zero.
func NewDetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set) *Detection {
	crashAt, ok := truth.CrashTime(subject)
	return newDetection(ruleFinal, subject, observers, Interval{Start: crashAt}, ok)
}

// NewRedetectionTimes measures detection of the subject's k-th downtime (k
// is a 0-based index into truth.Intervals(subject)): the time from the crash
// until each observer's first suspicion episode that begins inside the
// interval; an episode already open when the crash hit counts as detection
// time zero. Observers with no such episode count as Missing — for a closed
// interval that means the crash went unnoticed before the process came back.
// With k = 0 on a crash-stop record this generalizes NewDetectionTimes,
// except that the detecting episode need not be permanent (a recovered
// process is legitimately un-suspected later).
func NewRedetectionTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) *Detection {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) {
		return newDetection(ruleRedetect, subject, observers, Interval{}, false)
	}
	return newDetection(ruleRedetect, subject, observers, ivs[k], true)
}

// NewTrustRestorationTimes measures, after the subject's k-th downtime ends,
// how long the observers still suspecting it at the recovery instant take to
// trust it again: the end of the suspicion episode covering the recovery,
// minus the recovery time. Observers not suspecting the subject when it
// recovered are not counted at all; observers whose episode never closes
// count as Missing (the restarted process was never re-trusted within the
// horizon). An open k-th interval (no recovery) reports every observer as
// Missing.
func NewTrustRestorationTimes(truth *GroundTruth, subject ident.ID, observers ident.Set, k int) *Detection {
	ivs := truth.Intervals(subject)
	if k < 0 || k >= len(ivs) || ivs[k].Open() {
		return newDetection(ruleRestore, subject, observers, Interval{}, false)
	}
	return newDetection(ruleRestore, subject, observers, ivs[k], true)
}

func (d *Detection) episode(observer, subject ident.ID, start, end time.Duration) {
	if subject != d.subject || !d.pending.Has(observer) {
		return
	}
	crash, open := d.iv.Start, end == -1
	switch d.rule {
	case ruleFinal:
		if !open {
			return
		}
		d.acc.add(max(start-crash, 0)) // zero: suspected since before the crash
	case ruleRedetect:
		switch {
		case start <= crash && (open || end > crash):
			d.acc.add(0) // suspected since before the crash
		case start >= crash && (d.iv.Open() || start < d.iv.End):
			d.acc.add(start - crash)
		default:
			return
		}
	case ruleRestore:
		r := d.iv.End
		if start > r || !open && end <= r {
			return // not suspecting at the recovery instant
		}
		if open {
			d.acc.miss()
		} else {
			d.acc.add(end - r)
		}
	}
	d.pending.Remove(observer)
}

// Result returns the statistics over the observers. Under the detection
// and redetection rules an observer no episode decided is Missing.
func (d *Detection) Result() DetectionStats {
	if d.void {
		return DetectionStats{Missing: d.observers.Len()}
	}
	acc := d.acc
	if d.rule != ruleRestore {
		acc.stats.Missing = d.pending.Len()
	}
	return acc.result()
}

// Mistakes accumulates MistakeStats.
type Mistakes struct {
	truth   *GroundTruth
	members ident.Set
	horizon time.Duration
	stats   MistakeStats
	total   time.Duration
}

// NewMistakes counts, over all (observer, subject) pairs among members,
// suspicion episodes of subjects that had not crashed when the episode
// began. Episodes are folded as the trace holds them, not over members ×
// members: most pairs of a large cluster never appear in one.
func NewMistakes(truth *GroundTruth, members ident.Set, horizon time.Duration) *Mistakes {
	return &Mistakes{truth: truth, members: members, horizon: horizon}
}

func (m *Mistakes) episode(observer, subject ident.ID, start, end time.Duration) {
	if observer == subject || !m.members.Has(observer) || !m.members.Has(subject) || m.truth.DownAt(subject, start) {
		return // outside the members, or a true suspicion
	}
	if end == -1 {
		// Open at the cut: a mistake only if the subject is up at the cut
		// (otherwise it became a true detection).
		if !m.truth.DownAt(subject, m.horizon) {
			m.stats.Unresolved++
		}
		return
	}
	m.stats.Count++
	d := end - start
	m.total += d
	m.stats.MaxDuration = max(m.stats.MaxDuration, d)
}

// Result finalizes the average duration and the rate.
func (m *Mistakes) Result() MistakeStats {
	stats := m.stats
	pairs := m.members.Len() * (m.members.Len() - 1)
	if stats.Count > 0 {
		stats.AvgDuration = m.total / time.Duration(stats.Count)
	}
	if pairs > 0 && m.horizon > 0 {
		stats.Rate = float64(stats.Count) / float64(pairs) / m.horizon.Seconds()
	}
	return stats
}

// QueryAccuracy accumulates P_A.
type QueryAccuracy struct {
	truth    *GroundTruth
	members  ident.Set
	horizon  time.Duration
	wrongful time.Duration
}

// NewQueryAccuracy measures P_A: the probability that a random query about
// a random correct process at a random time in [0, horizon] is answered
// correctly (not suspected). Computed as 1 − (aggregate wrongful-suspicion
// time) / (correct-pair count × horizon). Pairs involving a process that
// crashes at any point are excluded entirely, as in the crash-stop metric
// definition; accuracy around recoveries is covered by the dedicated
// recovery metrics (trust restoration, reconvergence, mistake storms).
func NewQueryAccuracy(truth *GroundTruth, members ident.Set, horizon time.Duration) *QueryAccuracy {
	return &QueryAccuracy{truth: truth, members: members, horizon: horizon}
}

func (q *QueryAccuracy) episode(observer, subject ident.ID, start, end time.Duration) {
	if observer == subject || !q.members.Has(observer) || !q.members.Has(subject) ||
		q.truth.Crashed(observer) || q.truth.Crashed(subject) {
		return
	}
	if end == -1 || end > q.horizon {
		end = q.horizon
	}
	if end > start {
		q.wrongful += end - start
	}
}

// Result returns P_A; 1 when there is no correct pair or no horizon.
func (q *QueryAccuracy) Result() float64 {
	correct := 0
	q.members.ForEach(func(id ident.ID) bool {
		if !q.truth.Crashed(id) {
			correct++
		}
		return true
	})
	pairs := correct * (correct - 1)
	if q.horizon <= 0 || pairs == 0 {
		return 1
	}
	frac := float64(q.wrongful) / (float64(pairs) * float64(q.horizon))
	return 1 - frac
}

// Reconvergence accumulates a settle time and whether it was clean.
type Reconvergence struct {
	truth   *GroundTruth
	members ident.Set
	from    time.Duration
	settle  time.Duration
	dirty   bool
}

// NewReconvergence measures the settle time after `from` (typically a heal
// or a recovery): how long until the last wrongful suspicion among members
// is corrected, and whether every one of them was (clean). A suspicion
// episode counts when it is active at `from`, or begins after it while its
// subject is up; the settle time is the largest episode end minus `from` —
// zero when nothing was wrongfully suspected from `from` on. Episodes still
// open at the end of the trace make the result unclean and do not extend
// the settle time.
func NewReconvergence(truth *GroundTruth, members ident.Set, from time.Duration) *Reconvergence {
	return &Reconvergence{truth: truth, members: members, from: from}
}

func (r *Reconvergence) episode(observer, subject ident.ID, start, end time.Duration) {
	if observer == subject || !r.members.Has(observer) || !r.members.Has(subject) {
		return
	}
	activeAt := start
	if activeAt < r.from {
		if end != -1 && end <= r.from {
			return // over before `from`
		}
		activeAt = r.from
	}
	switch {
	case r.truth.DownAt(subject, activeAt):
		// justified suspicion
	case end == -1:
		r.dirty = true
	default:
		r.settle = max(r.settle, end-r.from)
	}
}

// Result returns the settle time and whether every wrongful suspicion was
// corrected.
func (r *Reconvergence) Result() (settle time.Duration, clean bool) { return r.settle, !r.dirty }

// MistakeStorm counts false-suspicion episodes in a window.
type MistakeStorm struct {
	truth      *GroundTruth
	members    ident.Set
	start, end time.Duration
	storm      int
}

// NewMistakeStorm counts the false-suspicion episodes among members that
// begin inside [start, end) — the mistake burst a partition window or a
// restart provokes. An episode is false when its subject is not down at the
// instant it begins.
func NewMistakeStorm(truth *GroundTruth, members ident.Set, start, end time.Duration) *MistakeStorm {
	return &MistakeStorm{truth: truth, members: members, start: start, end: end}
}

func (s *MistakeStorm) episode(observer, subject ident.ID, start, _ time.Duration) {
	if observer == subject || !s.members.Has(observer) || !s.members.Has(subject) ||
		start < s.start || start >= s.end || s.truth.DownAt(subject, start) {
		return
	}
	s.storm++
}

// Result returns the count.
func (s *MistakeStorm) Result() int { return s.storm }

// FalseSuspicionSeries samples false suspicions over time.
type FalseSuspicionSeries struct {
	truth *GroundTruth
	times []time.Duration
	out   []int
}

// NewFalseSuspicionSeries samples how many (observer, correct-subject)
// pairs are in the suspected state at each of the given instants — the data
// behind the "number of false suspicions over time" figure. An episode
// counts at t when it has begun by t and has not ended by it; a subject
// that crashes at any point is left out.
func NewFalseSuspicionSeries(truth *GroundTruth, times []time.Duration) *FalseSuspicionSeries {
	return &FalseSuspicionSeries{truth: truth, times: times, out: make([]int, len(times))}
}

func (f *FalseSuspicionSeries) episode(_, subject ident.ID, start, end time.Duration) {
	if f.truth.Crashed(subject) {
		return
	}
	for i, t := range f.times {
		if start <= t && (end == -1 || end > t) {
			f.out[i]++
		}
	}
}

// Result returns the count at each instant, in the order of times.
func (f *FalseSuspicionSeries) Result() []int { return f.out }

// SuspectedInTail collects the subjects suspected at or after a cut.
type SuspectedInTail struct {
	cut time.Duration
	out ident.Set
}

// NewSuspectedInTail collects the subjects suspected by any observer at or
// after cut: a subject qualifies when some pair holds a suspicion episode
// that begins at or after the cut, spans it, or never closes. It backs the
// E6 tail metric.
func NewSuspectedInTail(cut time.Duration) *SuspectedInTail {
	return &SuspectedInTail{cut: cut}
}

func (s *SuspectedInTail) episode(_, subject ident.ID, start, end time.Duration) {
	if start >= s.cut || end == -1 || end > s.cut {
		s.out.Add(subject)
	}
}

// Result returns the set of subjects.
func (s *SuspectedInTail) Result() ident.Set { return s.out }
